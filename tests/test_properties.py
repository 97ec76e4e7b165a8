"""Property tests of the pipelines on random graphs (needs `hypothesis`)."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from moddiv import (
    CLUSTERING_G3,
    CLUSTERING_G4,
    EngineConfig,
    Graph,
    Subgraph,
    run_ccr,
    run_ccr_ebr,
)
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
        for cid in best.community_ids():
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
