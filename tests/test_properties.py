"""Property tests of the pipelines on random graphs (needs `hypothesis`)."""

from __future__ import annotations

import json
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from moddiv import (
    CLUSTERING_G3,
    CLUSTERING_G4,
    EngineConfig,
    Graph,
    Partition,
    Subgraph,
    load_gml,
    modularity_q,
    run_ccr,
    run_ccr_ebr,
    write_gml,
)
from moddiv.cli import main
from moddiv.graph import reachable_within


@st.composite
def graphs(draw) -> Graph:
    """Graphs on 2..40 vertices with at least one edge, possibly disconnected."""
    n = draw(st.integers(2, 40))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)), min_size=1, max_size=3 * n
    ))
    # j < n - 1 is shifted past i, so no pair is a self-loop
    return Graph(n, [(i, j + (j >= i)) for i, j in pairs])


def _runs(g: Graph):
    for measure in (CLUSTERING_G3, CLUSTERING_G4):
        cfg = EngineConfig(measure=measure)
        for runner in (run_ccr, run_ccr_ebr):
            yield runner(g, cfg)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_every_final_community_is_connected(g):
    for r in _runs(g):
        best = r.best_partition
        for cid in best.communities:
            members = best.members(cid)
            assert len(reachable_within(Subgraph(g, members), 0)) == len(members)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_trace_q_strictly_increases(g):
    for r in _runs(g):
        qs = [t.q for t in r.trace]
        assert all(b > a for a, b in zip(qs, qs[1:]))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_reredivision_never_lowers_q(g):
    for measure in (CLUSTERING_G3, CLUSTERING_G4):
        cfg = EngineConfig(measure=measure)
        assert run_ccr_ebr(g, cfg).best_q >= run_ccr(g, cfg).best_q - 1e-12


@settings(max_examples=60, deadline=None)
@given(graphs(), st.sampled_from(("ccr", "ccr-ebr")))
def test_partition_tsv_reloads_to_the_reported_q(g, algo):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_gml(g, out / "g.gml")
        with redirect_stdout(StringIO()):
            code = main(["detect", "--input", str(out / "g.gml"), "--algo", algo,
                         "--out-dir", str(out), "--no-timestamps"])
        assert code == 0
        reported = json.loads((out / "partition.json").read_text())["q"]
        rows = (out / "partition.tsv").read_text().splitlines()[1:]
        back = load_gml(out / "g.gml")
    community = dict(row.split("\t") for row in rows)
    p = Partition(back, [int(community[label]) for label in back.labels])
    assert abs(modularity_q(back, p) - reported) < 1e-12


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_relabelled_gml_round_trip_keeps_the_result(g, data):
    order = data.draw(st.permutations(range(g.n)))
    relabelled = Graph(g.n, g.edges, labels=[f"v{x}" for x in order])
    with tempfile.TemporaryDirectory() as tmp:
        write_gml(relabelled, Path(tmp) / "g.gml")
        back = load_gml(Path(tmp) / "g.gml")
    assert back.labels == relabelled.labels
    for runner in (run_ccr, run_ccr_ebr):
        want, got = runner(g), runner(back)
        assert got.best_q == want.best_q
        assert got.best_partition.assignment == want.best_partition.assignment
