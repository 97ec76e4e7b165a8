"""Both children of a clustering split inherit their parent's state.

At every dequeue of an inherited community its `Subgraph` and score table
must equal a fresh build of its members, every community passed as proven
connected must be connected, a clustering phase builds a table only for
its starting communities, and the runs that inherit must write the
artifacts a fresh build per bisection wrote.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from moddiv import CLUSTERING_G3, Graph, Subgraph, engine, load_gml
from moddiv.cli import main
from moddiv.graph import connected_components
from moddiv.measures import BETWEENNESS, CLUSTERING_G4
from moddiv.oracles import fresh_mismatch

from conftest import require_dataset

ARTIFACTS = (
    "partition.tsv",
    "partition.json",
    "dendrogram.json",
    "dendrogram.newick",
    "trace.jsonl",
)


def _generated(name: str, gen) -> tuple[int, list[tuple[int, int]]]:
    """A ring of 40 K4s, or a seeded planted or cycle-block graph."""
    if name == "ring40":
        n, edges, _ = gen.ring_of_cliques(40, 4)
        return n, edges
    kind, seed = name.split("-")
    rng = random.Random(int(seed))
    if kind == "planted":
        n, edges, _ = gen.planted_partition(rng, 96, 6, 8.0, 1.5)
    else:
        n, edges, _ = gen.cycle_blocks(rng, 120, 6, 3, 12)
    return n, edges


def _connected(g: Graph, members) -> bool:
    """A plain search of the subgraph of `g` induced by `members`."""
    members = set(members)
    start = min(members)
    seen, stack = {start}, [start]
    while stack:
        for w, _ in g.adj[stack.pop()]:
            if w in members and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == members


@pytest.mark.parametrize("runner", [engine.run_ccr, engine.run_ccr_ebr])
@pytest.mark.parametrize("measure", [CLUSTERING_G3, CLUSTERING_G4])
@pytest.mark.parametrize(
    "name", ["karate", "lesmis", "ring40", "planted-1", "planted-4", "cycles-3"]
)
def test_inherited_state_equals_a_fresh_build_at_every_dequeue(
    monkeypatch, gen, name, measure, runner
):
    if name in ("karate", "lesmis"):
        g = load_gml(require_dataset(name))
    else:
        g = Graph(*_generated(name, gen))
    real, real_scores = engine.bisect_community, engine.compute_scores
    inherited = []
    proven = []
    built = []  # the community size of each clustering table built fresh
    unhanded = []  # a table built fresh, not yet handed to its bisection

    def scores(kind, g, sub):
        table = real_scores(kind, g, sub)
        if kind != BETWEENNESS:
            built.append(len(sub))
            unhanded.append(table)
        return table

    def checked(g, sub, table, connected=False):
        if connected:
            assert _connected(g, sub)
            proven.append(len(sub))
        if table.kind != BETWEENNESS:
            # every clustering bisection is handed its table, kept or built
            # fresh for it, and a kept one equals a fresh build
            assert fresh_mismatch(g, table, Subgraph(g, sub)) is None
            if unhanded and table is unhanded[-1]:
                unhanded.pop()
            else:
                inherited.append(len(sub))
        return real(g, sub, table, connected)

    monkeypatch.setattr(engine, "bisect_community", checked)
    monkeypatch.setattr(engine, "compute_scores", scores)
    runner(g, engine.EngineConfig(measure=measure))
    assert proven
    # the starting communities, all connected, are the only ones without
    # kept state, and only they are scored fresh
    starting = [c for c in connected_components(g).groups() if len(c) > 1]
    assert built == [len(c) for c in starting]
    if name == "ring40":
        assert len(inherited) == 60  # both children of its 30 accepted splits
    elif name in ("karate", "lesmis") and measure == CLUSTERING_G3:
        assert len(inherited) == 6
    else:
        assert inherited


# sha256 of ARTIFACTS written by `detect --no-timestamps` before the larger
# child inherited its parent's state, when every bisection built its
# subgraph and table fresh.
PINNED_SHA256 = {
    ("ring40", "ccr", "g3"): (
        "ce158f75e362b534d544c84e4f4e2612903dc10f75eef74cb745fc8aa2124349",
        "45e5426c8434433503bb14a3f327d8cfc04f03b4b3a302db55893983aa6620a0",
        "961bd03e42ab71e2a4ae2b488868ed3b8aed105733df1c79eb2f289d5d5ee506",
        "5e7dd5bd92f15a6434e8c5d79a7b3cf17cf4405fff44aec0b7089cfbc9975bd3",
        "20854df2410db842ca09f783f80deef1fd80cc8e5081fa798fca1c48a67cfa63",
    ),
    ("planted-1", "ccr-ebr", "g4"): (
        "c8b8497c61e236303bf15bd9bfe919d5b1f3ac5897e7935a4d2ff79ab6691e93",
        "ff58c66de04f065eb4242ef13271674c5138aef6fc6c3a5e098b177fa645547f",
        "cc81a092a63f5733b68545f4a6e5446872f626702bce89a885669dfb37179a8c",
        "46dff9ef117ce82858f2b529c272c9dbded3c8d260521cd1e6c00c4c28a675d4",
        "8256d2f444f2554a6fc1aaa80b58b4a4595b08b47aa2abb911c216c51f902aaf",
    ),
}


@pytest.mark.parametrize("name, algo, measure", sorted(PINNED_SHA256))
def test_inheriting_runs_write_the_pinned_artifacts(tmp_path, gen, name, algo, measure):
    n, edges = _generated(name, gen)
    path = tmp_path / f"{name}.gml"
    gen.write_gml(path, [str(v) for v in range(n)], edges)
    out = tmp_path / "out"
    code = main([
        "detect", "--input", str(path), "--algo", algo, "--measure", measure,
        "--out-dir", str(out), "--no-timestamps",
    ])
    assert code == 0
    got = tuple(hashlib.sha256((out / a).read_bytes()).hexdigest() for a in ARTIFACTS)
    assert got == PINNED_SHA256[name, algo, measure]
