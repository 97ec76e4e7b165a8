"""`dumps_indented` against `json.dumps(obj, indent=2)`, text for text."""

from __future__ import annotations

import json
import math

import pytest

from moddiv import Graph, load_gml, run_ccr, run_ccr_ebr
from moddiv.jsontext import dumps_indented
from moddiv.modularity import partition_to_json_obj

from conftest import require_dataset


def _same_as_json(obj) -> None:
    assert dumps_indented(obj) == json.dumps(obj, indent=2)


def _run_objects(g: Graph):
    for runner in (run_ccr, run_ccr_ebr):
        result = runner(g)
        yield partition_to_json_obj(result.best_partition)
        yield result.dendrogram.to_json_obj()


@pytest.mark.parametrize("dataset", ["karate", "lesmis"])
def test_dataset_artifacts(dataset):
    for obj in _run_objects(load_gml(require_dataset(dataset))):
        _same_as_json(obj)


def test_ring_of_200_k4_artifacts(gen):
    n, edges, _ = gen.ring_of_cliques(200, 4)
    for obj in _run_objects(Graph(n, edges)):
        _same_as_json(obj)


def test_partition_to_json_is_the_indented_text_plus_a_newline(k4):
    result = run_ccr(k4)
    want = json.dumps(partition_to_json_obj(result.best_partition), indent=2) + "\n"
    assert dumps_indented(partition_to_json_obj(result.best_partition)) + "\n" == want


ODD_VALUES = [
    {},
    [],
    (),
    {"a": [], "b": {}, "c": [[], {}]},
    [[[]]],
    "",
    'say "hi"',
    "back\\slash",
    "tab\tnewline\ncr\rbell\x07nul\x00",
    "café 中 \U0001f600 \ud800",
    {"k\"ey\\": "v ", "\x01": None},
    [0, -1, 2**53, 2**53 + 1, -(2**64) - 3, 10**40],
    [0.0, -0.0, 1e-320, 1.5e300, 0.1, -2.5, 1 / 3],
    [math.inf, -math.inf, math.nan],
    [True, False, None, 1, 1.0, "1"],
    {"generated_at": "2024-01-01T00:00:00+00:00", "rows": [{"q": 0.4188, "ok": True}]},
    ({"t": (1, "x")}, [None]),
    [{"id": 0, "moves": [{"vertex": "a b", "gain": 1e-9}], "members": ["0", "1"]}],
]


@pytest.mark.parametrize("obj", ODD_VALUES, ids=[repr(v)[:40] for v in ODD_VALUES])
def test_odd_values(obj):
    _same_as_json(obj)


def test_scalar_subclasses_are_written_as_json_writes_them():
    class Label(str):
        pass

    class Count(int):
        pass

    class Weight(float):
        pass

    _same_as_json({"s": Label("x\"y"), "i": Count(7), "f": Weight(-0.0), "b": [True]})


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": object()}, [1, {2, 3}]])
def test_unsupported_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        dumps_indented(obj)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis is a test aid; the cases above still run
    pass
else:
    _json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda children: st.lists(children) | st.dictionaries(st.text(), children),
        max_leaves=30,
    )

    @settings(max_examples=300, deadline=None)
    @given(_json_values)
    def test_random_values(obj):
        _same_as_json(obj)
