"""Differential checks against networkx, which shares no code with moddiv.

networkx is a test aid only: these tests skip when it is not installed.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

nx = pytest.importorskip("networkx")

from moddiv import (  # noqa: E402
    Graph,
    Partition,
    Subgraph,
    edge_betweenness,
    modularity_q,
    run_ccr,
    run_ccr_ebr,
)
from moddiv.oracles import gnp_connected, gnp_graph, random_dense_assignment  # noqa: E402

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assert_betweenness_matches(g, members, removed):
    sub = Subgraph(g, members)
    for eid in removed:
        sub.remove_edge(*g.edges[eid])
    got = edge_betweenness(g, sub).scores

    inside = set(members)
    h = nx.Graph()
    h.add_nodes_from(inside)
    for eid, (u, v) in enumerate(g.edges):
        if u in inside and v in inside and eid not in removed:
            h.add_edge(u, v, eid=eid)
    want = {
        h.edges[u, v]["eid"]: score
        for (u, v), score in nx.edge_betweenness_centrality(h, normalized=False).items()
    }
    assert set(got) == set(want)
    for eid, score in want.items():
        assert abs(got[eid] - score) < 1e-9, (eid, got[eid], score)


def test_edge_betweenness_matches_networkx_on_whole_graphs():
    rng = random.Random(11)
    for _ in range(30):
        g = gnp_connected(rng, rng.randint(4, 40), rng.choice((0.1, 0.3, 0.6)))
        _assert_betweenness_matches(g, range(g.n), set())


def test_edge_betweenness_matches_networkx_on_subsets_with_removals():
    rng = random.Random(12)
    for _ in range(30):
        g = gnp_connected(rng, rng.randint(6, 40), rng.choice((0.1, 0.3, 0.6)))
        members = rng.sample(range(g.n), rng.randint(3, g.n))
        inside = set(members)
        internal = [eid for eid, (u, v) in enumerate(g.edges) if u in inside and v in inside]
        removed = set(rng.sample(internal, min(len(internal), rng.randint(1, 4))))
        _assert_betweenness_matches(g, members, removed)


def test_modularity_q_matches_networkx():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 40)
        g = gnp_graph(rng, n, rng.choice((0.05, 0.2, 0.5)))
        assignment = random_dense_assignment(rng, n, rng.randint(1, n))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        groups: dict[int, set[int]] = {}
        for v, c in enumerate(assignment):
            groups.setdefault(c, set()).add(v)
        want = nx.community.modularity(h, list(groups.values()))
        got = modularity_q(Partition(g, assignment))
        assert abs(got - want) < 1e-12, (got, want)


def test_lfr_planted_communities_are_recovered(monkeypatch):
    # 250 vertices, mixing 0.1: m=1479 and 10 planted communities.  The
    # sparser average degree 5 plants only 3 communities, too coarse to pin.
    lfr = nx.LFR_benchmark_graph(
        250, 2.5, 1.5, 0.1, average_degree=10, max_degree=30, min_community=20, seed=10
    )
    g = Graph(lfr.number_of_nodes(), list(lfr.edges()))
    planted: dict[frozenset, int] = {}
    truth = [planted.setdefault(frozenset(lfr.nodes[v]["community"]), len(planted))
             for v in range(g.n)]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from check import nmi

    ccr, ccr_ebr = run_ccr(g), run_ccr_ebr(g)
    for r in (ccr, ccr_ebr):
        assert nmi(r.best_partition.assignment, truth) >= 0.98
    assert ccr_ebr.best_q >= ccr.best_q
