"""Indented JSON text for the artifacts, the same as `json.dumps(obj, indent=2)`.

`json.dumps` with an indent runs the json module's pure-Python encoder.
This writer emits the same text for what the artifacts hold (dicts with
string keys, lists and tuples, strings, ints, floats, None and bools): each
container is one `join` over the texts of its items.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

_INF = float("inf")


def _text(obj, newline: str) -> str:
    """The JSON text of `obj`; `newline` starts each of its nested lines."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == _INF:
            return "Infinity"
        if obj == -_INF:
            return "-Infinity"
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _text(value, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_text(x, inner) for x in obj]) + newline + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps_indented(obj) -> str:
    """`json.dumps(obj, indent=2)`, for dicts with string keys, lists,
    tuples and JSON scalars."""
    return _text(obj, "\n")
