"""Property test of `load_gml` on reformatted `write_gml` text, checked
against networkx's GML reader, which shares no code with moddiv.

Needs `hypothesis` and `networkx`; skips without either.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")
from hypothesis import given, settings, strategies as st

from moddiv import Graph, load_gml, write_gml

# Labels both readers take back unchanged: no `"`, which GML strings cannot
# escape, no `&`, which networkx reads as the start of an HTML entity, and
# nothing the label rule refuses.
LABEL_CHARS = st.characters(
    blacklist_categories=("Cs",),
    blacklist_characters='"&\t\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029',
)
LABELS = st.text(LABEL_CHARS, max_size=6).filter(lambda s: not s.startswith("#"))
UNKNOWN_KEYS = ("weight", "value", "name", "Creator")
UNKNOWN_VALUES = ("2", "-1.5", '"q r"')
SPACES = (" ", "\n", "\t", "\n\n  ")


@st.composite
def labelled_graphs(draw) -> Graph:
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)), min_size=1, max_size=3 * n
    ))
    labels = draw(st.lists(LABELS, min_size=n, max_size=n))
    # j < n - 1 is shifted past i, so no pair is a self-loop
    return Graph(n, [(i, j + (j >= i)) for i, j in pairs], labels)


def spelled(rnd, k: int) -> str:
    """One GML spelling of the integer `k`: plain, signed or zero-padded."""
    if k < 0:
        return rnd.choice((str(k), f"-0{-k}"))
    return rnd.choice((str(k), f"+{k}", f"0{k}"))


def extras(rnd, added: set[str]) -> list[str]:
    """Tokens of zero to two unknown entries, each a key with a numeric or
    quoted value or a nested `graphics` block; their keys go into `added`."""
    out = []
    for _ in range(rnd.randint(0, 2)):
        if rnd.random() < 0.3:
            out += ["graphics", "[", "x", "1.5", "]"]
            added.add("graphics")
        else:
            key = rnd.choice(UNKNOWN_KEYS)
            out += [key, rnd.choice(UNKNOWN_VALUES)]
            added.add(key)
    return out


def mutated(text: str, rnd) -> tuple[str, list[int], set[str]]:
    """`write_gml` text with new node ids in other spellings, shuffled keys
    in each block, unknown entries at graph level and in each block, and
    other whitespace between tokens.  Returns the text, each vertex's new
    id and the unknown keys added."""
    # `write_gml` puts one `key [`, `]` or `key value` on each line
    lines = [line.strip() for line in text.split("\n")]
    blocks: list[tuple[str, list[list[str]]]] = []
    for line in lines[1:]:
        if line.endswith("["):
            blocks.append((line.split()[0], []))
        elif line not in ("]", ""):
            blocks[-1][1].append(line.split(" ", 1))
    n = sum(kind == "node" for kind, _ in blocks)
    ids = rnd.sample(range(-99, 1000), n)
    added: set[str] = set()
    tokens = ["graph", "["]
    for kind, entries in blocks:
        for entry in entries:
            if entry[0] in ("id", "source", "target"):
                entry[1] = spelled(rnd, ids[int(entry[1])])
        entries.append(extras(rnd, added))  # shuffled in with the known entries
        rnd.shuffle(entries)
        tokens += extras(rnd, added) + [kind, "["] + sum(entries, []) + ["]"]
    tokens += extras(rnd, added) + ["]"]
    spaced = [tok + rnd.choice(SPACES) for tok in tokens]
    return "".join(spaced), ids, added


@settings(max_examples=150, deadline=None)
@given(labelled_graphs(), st.randoms(use_true_random=False))
def test_reformatted_gml_loads_to_the_same_graph_as_networkx_reads(g, rnd):
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        write_gml(g, tmp / "plain.gml")
        text, ids, added = mutated((tmp / "plain.gml").read_text(encoding="utf-8"), rnd)
        (tmp / "mutated.gml").write_text(text, encoding="utf-8")
        plain, back = load_gml(tmp / "plain.gml"), load_gml(tmp / "mutated.gml")
    assert (plain.labels, plain.edges) == (g.labels, g.edges)
    assert (back.labels, back.edges) == (plain.labels, plain.edges)
    assert set(back.warnings.unknown_keys) == added

    ref = nx.parse_gml(text, label=None)
    assert list(ref.nodes) == ids
    assert [ref.nodes[i]["label"] for i in ids] == back.labels
    assert {frozenset(e) for e in ref.edges} == {
        frozenset((ids[u], ids[v])) for u, v in back.edges
    }
