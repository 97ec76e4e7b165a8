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
    load_gml,
    modularity_q,
    refine,
    run_ccr,
    run_ccr_ebr,
)
from moddiv import engine
from moddiv.engine import Dendrogram, TraceEntry
from moddiv.oracles import (
    exhaustive_best_partition,
    fresh_mismatch,
    gnp_connected,
    reference_run,
)

from conftest import exported_tree, replayed_tree, require_dataset


def _cfg(**kw) -> EngineConfig:
    return EngineConfig(**kw)


def _events(result) -> list[dict]:
    """Every event of a run, removals included, read back from its trace lines."""
    return [json.loads(line) for line in result.jsonl]


# -- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(measure="nonsense")
    with pytest.raises(ConfigError):
        _cfg(refine_max_passes=0)
    for passes in (2.5, "3", True, None):
        with pytest.raises(ConfigError, match="refine_max_passes"):
            _cfg(refine_max_passes=passes)
    _cfg()


def test_config_rejects_betweenness_for_phase_one():
    with pytest.raises(ConfigError):
        _cfg(measure=BETWEENNESS)


# -- bisect ------------------------------------------------------------------


def test_bisect_barbell_cuts_the_bridge(barbell):
    sub = Subgraph(barbell, range(6))
    bis = bisect_community(barbell, sub, CLUSTERING_G3)
    assert (bis.side, bis.side_is_a) == ((0, 1, 2), True)  # the rest is side b
    assert [eid for eid, _ in bis.removals] == [3]
    assert bis.removals[0][1] == 0.5
    # the removals are made on the subgraph, not on the graph
    assert 3 not in sub.nbrs[2]
    assert (2, 3) in barbell.edges


def test_bisect_path_betweenness_tie_breaks_low_edge_id(path3):
    bis = bisect_community(path3, Subgraph(path3, range(3)), BETWEENNESS)
    assert [eid for eid, _ in bis.removals] == [0]
    assert (bis.side, bis.side_is_a) == ((0,), True)  # the side that ran out


def test_bisect_k3_walks_through_infinities(k3):
    bis = bisect_community(k3, Subgraph(k3, range(3)), CLUSTERING_G3)
    assert [eid for eid, _ in bis.removals] == [0, 1]
    assert bis.removals[0][1] == 2.0
    assert math.isinf(bis.removals[1][1])
    assert (bis.side, bis.side_is_a) == ((0,), True)


def test_bisect_preconditions(barbell, two_triangles):
    with pytest.raises(ValueError):
        bisect_community(barbell, Subgraph(barbell, [0]), CLUSTERING_G3)
    # a disconnected community splits off the smallest vertex's component
    # without removing an edge, and carries the smaller of it and the rest
    bis = bisect_community(two_triangles, Subgraph(two_triangles, range(6)), CLUSTERING_G3)
    assert (bis.side, bis.side_is_a, bis.removals) == ((0, 1, 2), True, ())
    bis = bisect_community(two_triangles, Subgraph(two_triangles, [0, 1, 2, 4]), CLUSTERING_G3)
    assert (bis.side, bis.side_is_a, bis.removals) == ((4,), False, ())
    bis = bisect_community(two_triangles, Subgraph(two_triangles, [0, 3, 4, 5]), CLUSTERING_G3)
    assert (bis.side, bis.side_is_a, bis.removals) == ((0,), True, ())
    lone = Graph(3, [(0, 1)])
    bis = bisect_community(lone, Subgraph(lone, [0, 2]), CLUSTERING_G3)
    assert (bis.side, bis.side_is_a, bis.removals) == ((0,), True, ())


def _keeps_a_cycle(kind: str, sub: Subgraph, u: int, v: int) -> bool:
    """Whether the edge u-v, just removed from `sub`, lay on a triangle (g3)
    or a 4-cycle (g4), counted from the neighbour sets of what is left."""
    nu, nv = sub.nbrs[u], sub.nbrs[v]
    if kind == CLUSTERING_G3:
        return bool(nu.keys() & nv.keys())
    return any(b in sub.nbrs[a] for a in nu for b in nv if a != b)


def test_split_test_runs_one_search_per_bisection_and_removal(monkeypatch, gen):
    """One search per removal that left no triangle (g3) or 4-cycle (g4)
    of the removed edge, and per betweenness removal, plus one opening
    search per bisection of a community not proven connected; proven
    bisections skip it.  Every removal but a bisection's last is rescored,
    and the last one split the community, so it lay on no cycle."""
    calls = []
    proven = []
    skipped = []
    real_reach, real_bisect = engine.reachable_within, engine.bisect_community
    real_rescore = engine.rescore_after_removal

    def counted(*args, **kwargs):
        calls.append(args)
        return real_reach(*args, **kwargs)

    def bisect(g, sub, measure, table=None, connected=False):
        proven.append(connected)
        return real_bisect(g, sub, measure, table, connected)

    def rescore(prev, g, sub, eid):
        if prev.kind != BETWEENNESS:
            skipped.append(_keeps_a_cycle(prev.kind, sub, *g.edges[eid]))
        return real_rescore(prev, g, sub, eid)

    monkeypatch.setattr(engine, "reachable_within", counted)
    monkeypatch.setattr(engine, "bisect_community", bisect)
    monkeypatch.setattr(engine, "rescore_after_removal", rescore)
    rng = random.Random(61)
    graphs = [("gnp", gnp_connected(rng, rng.randint(10, 30), 0.25)) for _ in range(5)]
    graphs += [("ring", Graph(*gen.ring_of_cliques(k, 4)[:2])) for k in (12, 40)]
    for kind, g in graphs:
        for runner in (run_ccr, run_ccr_ebr):
            for measure in (CLUSTERING_G3, CLUSTERING_G4):
                calls.clear()
                proven.clear()
                skipped.clear()
                r = runner(g, _cfg(measure=measure))
                events = _events(r)
                removals = sum(e["type"] == "remove" for e in events)
                bisections = sum(e["type"] in ("accept", "reject") for e in events)
                assert bisections == len(proven) > 0
                assert len(calls) == removals + bisections - sum(proven) - sum(skipped)
                if kind == "ring":
                    assert sum(proven) > 0
                if kind == "gnp":
                    assert sum(skipped) > 0


@pytest.mark.parametrize("measure", [CLUSTERING_G3, CLUSTERING_G4])
def test_a_removal_with_a_kept_cycle_leaves_its_ends_connected(monkeypatch, gen, measure):
    """The split test is skipped for a removal whose kept count is above 0;
    a plain search from one end must then reach the other, on freshly
    built tables and on tables `_reconcile` brought up to date."""
    reconciled = {}  # id -> table, for every table a reconcile took over
    seen = {"fresh": 0, "reconciled": 0}
    real_reconcile, real_rescore = engine._reconcile, engine.rescore_after_removal

    def reconcile(g, sub, table, removals, changed, members):
        real_reconcile(g, sub, table, removals, changed, members)
        reconciled[id(table)] = table

    def rescore(prev, g, sub, eid):
        if prev.cycles[eid] > 0:
            u, v = g.edges[eid]
            assert v in engine.reachable_within(sub, u)
            seen["reconciled" if reconciled.get(id(prev)) is prev else "fresh"] += 1
        return real_rescore(prev, g, sub, eid)

    monkeypatch.setattr(engine, "_reconcile", reconcile)
    monkeypatch.setattr(engine, "rescore_after_removal", rescore)
    rng = random.Random(1504)
    for _ in range(6):
        n, edges, _ = gen.planted_partition(rng, 96, 6, 8.0, 1.5)
        run_ccr(Graph(n, edges), _cfg(measure=measure))
        n, edges, _ = gen.cycle_blocks(rng, 120, 6, 3, 12)
        run_ccr(Graph(n, edges), _cfg(measure=measure))
    assert min(seen.values()) > 0, seen


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


class _CountedRows(list):
    """Adjacency rows that count how often each vertex's row is read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = [0] * len(rows)

    def __getitem__(self, v):
        self.reads[v] += 1
        return super().__getitem__(v)


def test_refine_skips_interior_candidates_until_they_return_to_the_boundary():
    # a path of two K4s {0..3} and {4..7} joined by the (3, 4) bridge; the
    # boundary between communities 1 and 2 walks from 5|6 to 3|4
    g = Graph(8, [(i, j) for b in (0, 4) for i in range(b, b + 4) for j in range(i + 1, b + 4)]
              + [(3, 4)])
    p = Partition(g, [0, 1, 1, 1, 1, 1, 2, 2])
    g.adj = _CountedRows(g.adj)
    candidates = {0, 2, 3, 5, 6}
    p, moves = refine(g, p, candidates, 100)
    # pass 1: 0 joins 1, making 3 interior; 5 joins 2, making 4 a candidate;
    # 6 has 4 outside.  Pass 2: 4 joins 2, making 5 and 6 interior and
    # putting 3 back on the boundary.  Pass 3 moves nothing.
    assert [(m.vertex, m.source, m.target) for m in moves] == [(0, 0, 1), (5, 1, 2), (4, 1, 2)]
    assert p.assignment == [1, 1, 1, 1, 2, 2, 2, 2]
    assert candidates == {0, 2, 3, 4, 5, 6}
    # one read per tally and one per move: 3 is tallied in passes 1 and 3
    # and skipped in pass 2; 0, 2, 5 and 6 are skipped once interior
    assert g.adj.reads == [2, 0, 1, 2, 3, 2, 1, 0]


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
        first_remove = next(e for e in _events(r) if e["type"] == "remove")
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
            assert r1.jsonl == r2.jsonl
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
    reached = set()  # "dropped moves" once a reject follows a move; "final-refine"
    for _ in range(10):
        g = gnp_connected(rng, rng.randint(8, 40), 0.2)
        r = run_ccr_ebr(g)
        d = r.dendrogram
        assert exported_tree(r) == replayed_tree(g, r.jsonl)
        events = _events(r)
        if any(a["type"] == "move" and b["type"] == "reject" for a, b in zip(events, events[1:])):
            reached.add("dropped moves")
        if any(e.get("stage") == "final-refine" for e in events):
            reached.add("final-refine")
        for node in d.nodes:
            for c in node.children:
                assert d.nodes[c].parent == node.node_id
        seen: list = []
        communities = set()
        for leaf in (node for node in d.nodes if not node.children):
            seen += leaf.members
            if leaf.members:
                communities.add(tuple(leaf.members))
        assert sorted(seen) == list(range(g.n))
        best = r.best_partition
        assert communities == {tuple(best.members(c)) for c in best.communities}
    assert reached == {"dropped moves", "final-refine"}


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


def test_dendrogram_deeper_than_the_recursion_limit_exports():
    # peel one vertex off a path `depth` times, nesting every split in the last
    depth = sys.getrecursionlimit() + 100
    g = Graph(depth + 1, [(v, v + 1) for v in range(depth)])
    p = Partition(g, [0] * g.n)
    d = Dendrogram(g, TraceEntry("init", 0.0, 1))
    cid = 0
    for v in range(depth):
        a, b = p.split_community(cid, [v], True)
        d.split(cid, (a, b), 0.0, ())
        cid = b
    d.finish(p)
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
    got = hashlib.sha256("".join(result.jsonl).encode()).hexdigest()
    assert got == "14d17a40d6023ed76c15eb192815357ab86ee553755c271c88eefcd77604bfdb"
    assert result.best_q == 0.8804642857142856
    assert result.best_partition.n_communities == 125


def test_deeper_ring_run_matches_pinned_history(gen):
    # 1200 K4s: 531 accepted and 532 rejected splits, dendrogram depth 530,
    # and communities of thousands of vertices judged split after split
    n, edges, _ = gen.ring_of_cliques(1200, 4)
    result = run_ccr(Graph(n, edges))
    got = hashlib.sha256("".join(result.jsonl).encode()).hexdigest()
    assert got == "f62761b13a56c6d0e9761231a95a4a76b4352e77d5265b5ad8cec30a53a3faaf"
    assert result.best_q == 0.9112277777777799
    assert result.best_partition.n_communities == 532


def test_history_serializes_as_json_lines(barbell):
    r = run_ccr(barbell)
    assert all(line.endswith("\n") and "\n" not in line[:-1] for line in r.jsonl)
    events = _events(r)
    assert r.history == [json.loads(line) for line in r.jsonl]
    # the lines are the one event record: no event list is kept beside them
    assert not hasattr(r, "__dict__")
    assert set(type(r).__slots__) == {"best_partition", "best_q", "dendrogram", "jsonl"}
    with pytest.raises(AttributeError):
        r.history = events
    assert all("q_after" in e and "type" in e for e in events)
    assert {e["type"] for e in events} <= {"remove", "move", "accept", "reject"}


@pytest.mark.parametrize("name", ["karate", "lesmis", "ring"])
def test_trace_lines_are_json_dumps_of_their_events_on_real_runs(gen, name):
    if name == "ring":
        g = Graph(*gen.ring_of_cliques(40, 4)[:2])
    else:
        g = load_gml(require_dataset(name))
    for runner in (run_ccr, run_ccr_ebr):
        r = runner(g)
        assert r.jsonl == [json.dumps(json.loads(line)) + "\n" for line in r.jsonl]
        assert r.history == [json.loads(line) for line in r.jsonl]


# Tab, CR and LF break the label rule that `Graph` enforces; backspace is
# the one short JSON escape of a control character a label may hold.
AWKWARD_LABELS = [
    'a"b', "\\", 'x\\"', '}, {"type": ', '"}, {"type": "move"', "\u00e9\u4e2d\U0001f600",
    "\x00\x01\x1f\x7f", "\x08\x1b", "\ud800", "\udfff", "", "type", ", ",
]


def _awkward_graphs():
    """Small seeded graphs whose labels are `AWKWARD_LABELS` or random strings
    of JSON-significant characters, repeated as often as the graph needs."""
    rng = random.Random(1502)
    pool = '"\\{}[],: type\x08\u00e9\ud83d'
    for i in range(10):
        g = gnp_connected(rng, rng.randint(12, 26), rng.choice((0.2, 0.35)))
        if i < 2:
            labels = AWKWARD_LABELS
        else:
            labels = ["".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))
                      for _ in range(5)]
        yield Graph(g.n, g.edges, [labels[v % len(labels)] for v in range(g.n)])


def test_trace_lines_equal_the_reference_dumps_on_awkward_labels():
    """`remove` and `move` lines are f-strings; on labels holding quotes,
    backslashes, event boundaries, non-ASCII, control characters, lone
    surrogates and the empty string they must still be the text of
    `json.dumps` on each event of `reference_run`."""
    removed: set[str] = set()
    kinds: set[str] = set()  # line shapes the runs reached
    for g in _awkward_graphs():
        for algo, runner in (("ccr", run_ccr), ("ccr-ebr", run_ccr_ebr)):
            for measure in (CLUSTERING_G3, CLUSTERING_G4):
                r = runner(g, _cfg(measure=measure))
                history, _, _ = reference_run(g, algo, measure)
                assert "".join(r.jsonl) == "".join(json.dumps(e) + "\n" for e in history)
                for e in history:
                    if e["type"] == "remove":
                        removed.update(e["edge"])
                        kinds.add("remove inf" if e["score"] == "inf" else "remove")
                    else:
                        kinds.add(e.get("stage", e["type"]))
    assert removed.issuperset(AWKWARD_LABELS)
    assert kinds == {"remove", "remove inf", "move", "final-refine", "accept", "reject"}


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
    """Both sides of a split, carved apart as an accepted split carves
    them, reconcile to a fresh build of their members: with a member
    inserted from outside, a member dropped, or a vertex of the peeled side
    moved across, which brings both ends of the last removal together."""
    g = _ring_of_k4s_with_outsider(8)
    sub = Subgraph(g, range(32))  # the ring, without the outsider 32
    table = compute_scores(measure, g, sub)
    bis = bisect_community(g, sub, measure, table)
    # the two lowest ring edges go: clique 1 is peeled off the ring
    assert (bis.side, bis.side_is_a) == ((4, 5, 6, 7), False)
    assert [e for e, _ in bis.removals] == [48, 49]
    assert 49 not in table.scores  # the last removal is forgotten, as a rescore would
    part = sub.split_off(bis.side)
    states = [(sub, table), (part, table.split_off(part.nbrs))]
    rest, peeled = set(range(32)) - set(bis.side), set(bis.side)
    if case == "inserted":
        rest.add(32)
    elif case == "dropped":
        rest.discard(13)
    else:
        rest.add(7)  # both ends of the last removal, (7, 8), are in the rest
        peeled.discard(7)
    for (kept, table), members in zip(states, (rest, peeled)):
        engine._reconcile(g, kept, table, bis.removals, {32, 13, 7}, members)
        assert table.nbrs is kept.nbrs
        assert fresh_mismatch(g, table, Subgraph(g, members)) is None
