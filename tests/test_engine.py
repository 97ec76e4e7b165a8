from __future__ import annotations

import hashlib
import json
import math
import random
import sys

import pytest

from moddiv import (
    BETWEENNESS,
    CLUSTERING_G3,
    CLUSTERING_G4,
    ConfigError,
    EngineConfig,
    Graph,
    Partition,
    Subgraph,
    bisect_community,
    compute_scores,
    modularity_q,
    refine,
    run_ccr,
    run_ccr_ebr,
)
from moddiv import engine
from moddiv.engine import Dendrogram, TraceEntry, history_to_jsonl
from moddiv.oracles import exhaustive_best_partition, gnp_connected


def _cfg(**kw) -> EngineConfig:
    return EngineConfig(**kw)


# -- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(measure="nonsense")
    with pytest.raises(ConfigError):
        _cfg(refine_max_passes=0)
    _cfg()


def test_config_rejects_betweenness_for_phase_one():
    with pytest.raises(ConfigError):
        _cfg(measure=BETWEENNESS)


# -- bisect ------------------------------------------------------------------


def test_bisect_barbell_cuts_the_bridge(barbell):
    sub = Subgraph(barbell, range(6))
    bis = bisect_community(barbell, sub, CLUSTERING_G3)
    assert bis.side_a == (0, 1, 2)
    assert bis.side_b == (3, 4, 5)
    assert [eid for eid, _ in bis.removals] == [3]
    assert bis.removals[0][1] == 0.5
    # the removals are made on the subgraph, not on the graph
    assert 3 not in sub.nbrs[2]
    assert (2, 3) in barbell.edges


def test_bisect_path_betweenness_tie_breaks_low_edge_id(path3):
    bis = bisect_community(path3, Subgraph(path3, range(3)), BETWEENNESS)
    assert [eid for eid, _ in bis.removals] == [0]
    assert bis.side_a == (0,)
    assert bis.side_b == (1, 2)


def test_bisect_k3_walks_through_infinities(k3):
    bis = bisect_community(k3, Subgraph(k3, range(3)), CLUSTERING_G3)
    assert [eid for eid, _ in bis.removals] == [0, 1]
    assert bis.removals[0][1] == 2.0
    assert math.isinf(bis.removals[1][1])
    assert bis.side_a == (0,)
    assert bis.side_b == (1, 2)


def test_bisect_preconditions(barbell, two_triangles):
    with pytest.raises(ValueError):
        bisect_community(barbell, Subgraph(barbell, [0]), CLUSTERING_G3)
    # a disconnected community splits off the smallest vertex's component
    # without removing an edge
    bis = bisect_community(two_triangles, Subgraph(two_triangles, range(6)), CLUSTERING_G3)
    assert (bis.side_a, bis.side_b, bis.removals) == ((0, 1, 2), (3, 4, 5), ())
    bis = bisect_community(two_triangles, Subgraph(two_triangles, [0, 1, 2, 4]), CLUSTERING_G3)
    assert (bis.side_a, bis.side_b, bis.removals) == ((0, 1, 2), (4,), ())
    lone = Graph(3, [(0, 1)])
    bis = bisect_community(lone, Subgraph(lone, [0, 2]), CLUSTERING_G3)
    assert (bis.side_a, bis.side_b, bis.removals) == ((0,), (2,), ())


def test_split_test_runs_one_search_per_bisection_and_removal(monkeypatch, gen):
    """One search per removal, plus one opening search per bisection of a
    community not proven connected; proven bisections skip it."""
    calls = []
    proven = []
    real_reach, real_bisect = engine.reachable_within, engine.bisect_community

    def counted(*args, **kwargs):
        calls.append(args)
        return real_reach(*args, **kwargs)

    def bisect(g, sub, measure, table=None, connected=False):
        proven.append(connected)
        return real_bisect(g, sub, measure, table, connected)

    monkeypatch.setattr(engine, "reachable_within", counted)
    monkeypatch.setattr(engine, "bisect_community", bisect)
    rng = random.Random(61)
    graphs = [("gnp", gnp_connected(rng, rng.randint(10, 30), 0.25)) for _ in range(5)]
    graphs += [("ring", Graph(*gen.ring_of_cliques(k, 4)[:2])) for k in (12, 40)]
    for kind, g in graphs:
        for runner in (run_ccr, run_ccr_ebr):
            calls.clear()
            proven.clear()
            r = runner(g)
            removals = sum(e["type"] == "remove" for e in r.history)
            bisections = sum(e["type"] in ("accept", "reject") for e in r.history)
            assert bisections == len(proven) > 0
            assert len(calls) == removals + bisections - sum(proven)
            if kind == "ring":
                assert sum(proven) > 0


# -- refine ------------------------------------------------------------------


def test_refine_pulls_misassigned_bridge_endpoint_back(barbell):
    p = Partition(barbell, [0, 0, 0, 0, 1, 1])  # vertex 3 on the wrong side
    q_before = modularity_q(barbell, p)
    p, moves = refine(barbell, p, {3}, 100)
    assert [(m.vertex, m.source, m.target) for m in moves] == [(3, 0, 1)]
    q_after = modularity_q(barbell, p)
    assert abs((q_after - q_before) - moves[0].gain) < 1e-12
    assert abs(q_after - 5.0 / 14.0) < 1e-12


def test_refine_is_a_fixed_point_on_good_partitions(barbell):
    p = Partition(barbell, [0, 0, 0, 1, 1, 1])
    p, moves = refine(barbell, p, {2, 3}, 100)
    assert moves == []
    assert p.assignment == [0, 0, 0, 1, 1, 1]


def test_refine_never_lowers_q():
    rng = random.Random(13)
    for _ in range(25):
        g = gnp_connected(rng, rng.randint(5, 30), rng.choice((0.2, 0.4)))
        k = rng.randint(2, 4)
        raw = [rng.randrange(k) for _ in range(g.n)]
        seen: dict[int, int] = {}
        dense = []
        for c in raw:
            seen.setdefault(c, len(seen))
            dense.append(seen[c])
        p = Partition(g, dense)
        q_before = modularity_q(g, p)
        p, _ = refine(g, p, set(range(g.n)), 100)
        assert modularity_q(g, p) >= q_before - 1e-12


def test_refine_offers_abandoned_neighbors_on_the_next_pass():
    # two K4s {0..3} and {4..7} joined by the (3, 4) bridge; only vertex 2 is
    # a candidate, and 3 can follow it only once the move makes 3 one
    g = Graph(8, [(i, j) for b in (0, 4) for i in range(b, b + 4) for j in range(i + 1, b + 4)]
              + [(3, 4)])
    p = Partition(g, [0, 0, 1, 1, 1, 1, 1, 1])
    candidates = {2}
    p, moves = refine(g, p, candidates, 100)
    assert [(m.vertex, m.source, m.target) for m in moves] == [(2, 1, 0), (3, 1, 0)]
    assert p.assignment == [0, 0, 0, 0, 1, 1, 1, 1]
    assert candidates == {2, 3, 4}


# -- pipelines ---------------------------------------------------------------


def test_two_disjoint_triangles(two_triangles):
    r = run_ccr(two_triangles)
    assert r.best_partition.n_communities == 2
    assert abs(r.best_q - 0.5) < 1e-12
    # the split was free: both communities exist from the start
    assert r.trace[0].n_communities == 2


def test_k3_stays_whole(k3):
    r = run_ccr(k3)
    assert r.best_partition.n_communities == 1
    assert r.best_q == 0.0


def test_barbell_both_pipelines(barbell):
    for runner in (run_ccr, run_ccr_ebr):
        r = runner(barbell)
        assert abs(r.best_q - 5.0 / 14.0) < 1e-12
        assert r.best_partition.n_communities == 2
        first_remove = next(e for e in r.history if e["type"] == "remove")
        assert first_remove["edge_id"] == 3


def test_isolated_vertex_is_its_own_community():
    g = Graph(4, [(1, 2), (2, 3)])
    r = run_ccr(g)
    lone = r.best_partition.assignment[0]
    assert r.best_partition.members(lone) == [0]


def test_engine_rejects_empty_graphs():
    with pytest.raises(ValueError):
        run_ccr(Graph(0, []))


def test_trace_is_strictly_increasing_and_deterministic():
    rng = random.Random(29)
    for _ in range(15):
        g = gnp_connected(rng, rng.randint(6, 35), rng.choice((0.15, 0.35)))
        for runner in (run_ccr, run_ccr_ebr):
            r1 = runner(g)
            r2 = runner(g)
            assert r1.best_partition.assignment == r2.best_partition.assignment
            assert r1.history == r2.history
            qs = [t.q for t in r1.trace]
            assert all(b > a for a, b in zip(qs, qs[1:]))


def test_ebr_never_loses_to_ccr():
    rng = random.Random(37)
    for _ in range(15):
        g = gnp_connected(rng, rng.randint(6, 35), rng.choice((0.15, 0.35)))
        assert run_ccr_ebr(g).best_q >= run_ccr(g).best_q - 1e-12


def test_engine_never_beats_exhaustive_search():
    rng = random.Random(43)
    for _ in range(25):
        g = gnp_connected(rng, rng.randint(3, 8), rng.choice((0.3, 0.6)))
        _, opt = exhaustive_best_partition(g)
        for runner in (run_ccr, run_ccr_ebr):
            assert runner(g).best_q <= opt + 1e-12


def test_dendrogram_nodes_partition_their_parents():
    rng = random.Random(53)
    for _ in range(10):
        g = gnp_connected(rng, rng.randint(8, 40), 0.2)
        r = run_ccr_ebr(g)
        d = r.dendrogram
        for node in d.nodes:
            for c in node.children:
                assert d.nodes[c].parent == node.node_id
        seen: list = []
        communities = set()
        for leaf in d.leaves():
            seen += leaf.members
            if leaf.members:
                communities.add(tuple(leaf.members))
        assert sorted(seen) == list(range(g.n))
        best = r.best_partition
        assert communities == {tuple(best.members(c)) for c in best.communities}


def test_best_partition_is_the_final_state():
    rng = random.Random(59)
    graphs = [gnp_connected(rng, rng.randint(6, 35), rng.choice((0.15, 0.35))) for _ in range(10)]
    graphs.append(Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]))
    for g in graphs:
        for runner in (run_ccr, run_ccr_ebr):
            r = runner(g)
            last = r.trace[-1]
            assert max(t.q for t in r.trace) == last.q
            assert abs(r.best_q - last.q) < 1e-12
            assert r.best_partition.n_communities == last.n_communities


def _chain_run(depth: int):
    """History, final partition and trace of a run that peels one vertex
    off a path `depth` times, nesting every split in the previous one."""
    g = Graph(depth + 1, [(v, v + 1) for v in range(depth)])
    p = Partition(g, [0] * g.n)
    history = []
    cid = 0
    for v in range(depth):
        a, b = p.split_community(cid, [v], range(v + 1, depth + 1))
        history.append({"type": "accept", "phase": 1, "community": cid,
                        "children": [a, b], "sizes": [1, depth - v], "q_after": 0.0})
        cid = b
    return g, history, p, [TraceEntry("init", 0.0, 1)]


def test_dendrogram_deeper_than_the_recursion_limit_exports():
    depth = sys.getrecursionlimit() + 100
    g, history, p, trace = _chain_run(depth)
    d = Dendrogram(g, history, p, trace)
    assert len(d.nodes) == 2 * depth + 1
    assert d.nodes[-1].parent == d.nodes[-2].parent == 2 * depth - 2
    obj = json.loads(json.dumps(d.to_json_obj(), indent=2))
    assert [node["id"] for node in obj["nodes"]] == list(range(2 * depth + 1))
    expected = "".join(f"({v}," for v in range(depth)) + str(depth) + ")" * depth
    assert d.to_newick() == expected + ";\n"


def test_deep_ring_run_matches_pinned_history(gen):
    # 125 communities from 124 accepted splits of one ring
    n, edges, _ = gen.ring_of_cliques(200, 4)
    result = run_ccr(Graph(n, edges))
    got = hashlib.sha256(history_to_jsonl(result.history).encode()).hexdigest()
    assert got == "14d17a40d6023ed76c15eb192815357ab86ee553755c271c88eefcd77604bfdb"
    assert result.best_q == 0.8804642857142856
    assert result.best_partition.n_communities == 125


def test_dendrogram_drops_moves_of_rejected_splits(barbell):
    p = Partition(barbell, [0] * barbell.n)
    a, b = p.split_community(0, [0, 1, 2], [3, 4, 5])
    move = {"type": "move", "phase": 1, "vertex": "3", "source": b, "target": a,
            "gain": -0.1, "q_after": 0.2}
    history = [
        move,
        {"type": "reject", "phase": 1, "community": 0, "q_tentative": 0.2, "q_after": 0.0},
        {**move, "vertex": "2", "source": a, "target": b},
        {"type": "accept", "phase": 1, "community": 0, "children": [a, b],
         "sizes": [3, 3], "q_after": 5 / 14},
        {**move, "phase": 2, "stage": "final-refine"},
    ]
    d = Dendrogram(barbell, history, p, [TraceEntry("init", 0.0, 1)])
    assert [n.parent for n in d.nodes] == [None, 0, 0]
    assert [e["vertex"] for e in d.nodes[0].moves] == ["2"]
    assert [e["vertex"] for e in d.final_moves] == ["3"]
    assert [n.members for n in d.leaves()] == [[0, 1, 2], [3, 4, 5]]


def test_history_serializes_as_json_lines(barbell):
    r = run_ccr(barbell)
    text = history_to_jsonl(r.history)
    events = [json.loads(line) for line in text.strip().splitlines()]
    assert events == r.history
    assert all("q_after" in e and "type" in e for e in events)
    assert {e["type"] for e in events} <= {"remove", "move", "accept", "reject"}


def test_dendrogram_exports(barbell):
    r = run_ccr(barbell)
    obj = r.dendrogram.to_json_obj()
    assert obj["n_vertices"] == 6
    assert json.loads(json.dumps(obj)) == obj
    newick = r.dendrogram.to_newick()
    assert newick.endswith(";\n")
    assert newick.count("(") == newick.count(")")


def test_detection_result_q_matches_partition(barbell, two_triangles):
    for g in (barbell, two_triangles):
        for runner in (run_ccr, run_ccr_ebr):
            r = runner(g)
            assert r.best_q == modularity_q(g, r.best_partition)
            assert r.best_q >= r.trace[0].q


def _ring_of_k4s_with_outsider(k: int) -> Graph:
    """k K4s on a ring, clique edges first, then ring edge i joining clique
    i to clique i + 1; plus vertex 4k joined to vertices 0 and 1."""
    pairs = [(4 * c + a, 4 * c + b) for c in range(k) for a in range(4) for b in range(a + 1, 4)]
    pairs += [(4 * c + 3, (4 * c + 4) % (4 * k)) for c in range(k)]
    pairs += [(0, 4 * k), (1, 4 * k)]
    return Graph(4 * k + 1, pairs)


@pytest.mark.parametrize("measure", [CLUSTERING_G3, CLUSTERING_G4])
@pytest.mark.parametrize("case", ["inserted", "dropped", "last-kept"])
def test_reconcile_equals_a_fresh_build(measure, case):
    """Member sets no engine run in the inheritance corpus reconciles
    against: an inserted member, a dropped member off the peeled side, and
    both ends of the last removal kept."""
    g = _ring_of_k4s_with_outsider(8)
    sub = Subgraph(g, range(32))  # the ring, without the outsider 32
    bis = bisect_community(g, sub, measure)
    # the two lowest ring edges go: clique 1 is peeled off the ring
    assert bis.side_b == (4, 5, 6, 7) and [e for e, _ in bis.removals] == [48, 49]
    assert 49 in bis.table.scores  # the last removal is never rescored
    members = set(bis.side_a)
    if case == "inserted":
        members.add(32)
    elif case == "dropped":
        members.discard(13)
    else:
        members.add(7)  # both ends of the last removal, (7, 8), are kept
    community = Partition(g, [0 if v in members else 1 for v in range(g.n)]).communities[0]
    assert engine._reconcile(g, sub, bis.table, bis.removals, community)
    fresh = Subgraph(g, members)
    want = compute_scores(measure, g, fresh)
    assert sorted(sub) == sorted(members)
    edges = [{eid for row in s.nbrs for eid in row.values()} for s in (sub, fresh)]
    assert edges[0] == edges[1]
    assert bis.table.scores == want.scores
    assert bis.table.cycles == want.cycles
    assert bis.table.removal_candidate() == want.removal_candidate()
