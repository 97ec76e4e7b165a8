from __future__ import annotations

import random

import pytest

from moddiv import EdgeScoreTable, Graph, Subgraph, edge_betweenness, engine
from moddiv.modularity import Partition, move_q
from moddiv.oracles import (
    DEFAULT_SEED,
    SUITE_CHECKS,
    OracleReport,
    betweenness_naive,
    check_betweenness_sum_law,
    check_betweenness_vs_naive,
    check_engine_vs_exhaustive,
    check_engine_vs_reference,
    check_moveq_vs_recompute,
    check_q_fast_vs_pairwise,
    check_rescore_vs_full,
    cycle_count_naive,
    exhaustive_best_partition,
    gnp_connected,
    gnp_graph,
    _set_partitions,
)


# -- report bookkeeping ------------------------------------------------------


def test_report_tracks_failures_iff_over_tolerance():
    r = OracleReport("demo", 3, 1e-9)
    r.record(1e-12, "a", 1.0, 1.0)
    assert r.passed and r.max_abs_diff == 1e-12
    r.record(1e-6, "b", 1.0, 1.000001)
    assert not r.passed
    assert r.max_abs_diff == 1e-6
    assert [f[0] for f in r.failures] == ["b"]
    obj = r.to_obj()
    assert obj["passed"] is False
    assert obj["failures"][0]["input"] == "b"


# -- the checks catch a broken implementation --------------------------------


def test_corrupted_move_gain_is_caught():
    def crooked(*args):
        return move_q(*args) + 1e-6

    clean = check_moveq_vs_recompute(7, cases=200)
    dirty = check_moveq_vs_recompute(7, cases=200, move_q_fn=crooked)
    assert clean.passed
    assert not dirty.passed
    assert dirty.name == "moveq-vs-recompute"


def test_corrupted_betweenness_is_caught():
    def crooked(g, sub):
        table = edge_betweenness(g, sub)
        eid = min(table.scores)
        table.scores[eid] += 0.5
        return table

    assert check_betweenness_vs_naive(7, cases=20).passed
    assert not check_betweenness_vs_naive(7, cases=20, fast_fn=crooked).passed
    assert check_betweenness_sum_law(7, cases=20).passed
    assert not check_betweenness_sum_law(7, cases=20, fast_fn=crooked).passed


def test_pick_that_breaks_ties_the_wrong_way_is_caught(monkeypatch):
    real = EdgeScoreTable.removal_candidate

    def largest_id(self):
        real(self)  # leaves the true pick's key exact, as the real pick does
        exact = {eid: self.score(eid) for eid in self.scores}
        best = min(exact.values())
        return max(eid for eid, s in exact.items() if s == best)

    assert check_rescore_vs_full(14, cases=10).passed
    monkeypatch.setattr(EdgeScoreTable, "removal_candidate", largest_id)
    report = check_rescore_vs_full(14, cases=10)
    assert not report.passed
    assert all(digest.endswith(" pick") for digest, _, _ in report.failures)


def test_all_checks_pass_on_a_small_sample():
    reports = [
        check_q_fast_vs_pairwise(11, cases=100),
        check_moveq_vs_recompute(12, cases=300),
        check_betweenness_vs_naive(13, cases=20),
        check_betweenness_sum_law(13, cases=20),
        check_rescore_vs_full(14, cases=10),
        check_engine_vs_exhaustive(15, cases=20),
        check_engine_vs_reference(16, cases=10),
    ]
    assert [r.name for r in reports] == list(SUITE_CHECKS)
    for r in reports:
        assert r.passed, r.to_obj()


def test_engine_vs_reference_reports_a_broken_undo(monkeypatch):
    real = Partition.undo_move

    def broken(self, v, source):  # leaves v where it is when `source` was emptied
        if source in self.communities:
            real(self, v, source)

    monkeypatch.setattr(Partition, "undo_move", broken)
    report = check_engine_vs_reference(4134, cases=3)
    assert not report.passed
    assert "case=0 graph=ring" in report.failures[0][0]


def test_engine_vs_reference_reaches_the_rare_engine_states(monkeypatch):
    """The suite's corpus reconciles a kept state with a member moved in
    from outside, and ends a split test on `stop_at`'s side of a reconciled
    subgraph that lost vertices, so a fault in either path fails the check."""
    reached = {"moved-in": 0, "stop-side-dropped": 0}
    real_reconcile, real_reach = engine._reconcile, engine.reachable_within
    shrunk = set()  # reconciled subgraphs that lost vertices

    def reconcile(g, sub, table, removals, changed, members):
        moved_in = not members <= sub.nbrs.keys()
        lost = not sub.nbrs.keys() <= members
        real_reconcile(g, sub, table, removals, changed, members)
        reached["moved-in"] += moved_in
        if lost:
            shrunk.add(sub)

    def reach(sub, start, stop_at=None):
        side = real_reach(sub, start, stop_at)
        dropped = sub in shrunk
        reached["stop-side-dropped"] += stop_at is not None and start not in side and dropped
        return side

    monkeypatch.setattr(engine, "_reconcile", reconcile)
    monkeypatch.setattr(engine, "reachable_within", reach)
    report = check_engine_vs_reference(DEFAULT_SEED + 5)
    assert report.cases == 150 and report.passed
    assert min(reached.values()) > 0, reached


# -- exhaustive reference ----------------------------------------------------


def test_exhaustive_fixtures(two_triangles, k3):
    part, q = exhaustive_best_partition(two_triangles)
    assert abs(q - 0.5) < 1e-12
    assert part.n_communities == 2
    part, q = exhaustive_best_partition(Graph(2, [(0, 1)]))
    assert abs(q) < 1e-12  # pairwise scorer carries float noise
    assert part.n_communities == 1
    part, q = exhaustive_best_partition(k3)
    assert abs(q) < 1e-12
    assert part.n_communities == 1


def test_exhaustive_guards():
    with pytest.raises(ValueError):
        exhaustive_best_partition(Graph(11, [(0, 1)]))
    with pytest.raises(ValueError):
        exhaustive_best_partition(Graph(3, []))


def test_set_partition_counts_match_bell_numbers():
    for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52)):
        seen = [list(a) for a in _set_partitions(n)]
        assert len(seen) == bell
        assert len({tuple(a) for a in seen}) == bell
        for a in seen:
            assert a[0] == 0
            for i in range(1, n):
                assert a[i] <= max(a[:i]) + 1


# -- naive counters ----------------------------------------------------------


def test_betweenness_naive_fixture(path3):
    table = betweenness_naive(path3, range(3))
    assert table.scores == {0: 2.0, 1: 2.0}


def test_cycle_count_fixtures(k4, c4):
    assert cycle_count_naive(k4, Subgraph(k4, range(4)), 0, 3) == 2
    sc4 = Subgraph(c4, range(4))
    assert cycle_count_naive(c4, sc4, 0, 3) == 0
    assert cycle_count_naive(c4, sc4, 0, 4) == 1


def test_cycle_count_guards(k4):
    sub = Subgraph(k4, range(4))
    with pytest.raises(ValueError):
        cycle_count_naive(k4, sub, 0, 5)
    sub.remove_edge(0, 1)
    with pytest.raises(ValueError):
        cycle_count_naive(k4, sub, 0, 3)
    big = Graph(61, [(0, 1)])
    with pytest.raises(ValueError):
        cycle_count_naive(big, Subgraph(big, range(61)), 0, 3)


# -- generators --------------------------------------------------------------


def test_generators_are_seed_deterministic():
    g1 = gnp_graph(random.Random(99), 20, 0.2)
    g2 = gnp_graph(random.Random(99), 20, 0.2)
    assert g1.edges == g2.edges
    c1 = gnp_connected(random.Random(99), 20, 0.1)
    c2 = gnp_connected(random.Random(99), 20, 0.1)
    assert c1.edges == c2.edges


def test_gnp_connected_is_connected():
    from moddiv.graph import connected_components

    rng = random.Random(5)
    for _ in range(30):
        g = gnp_connected(rng, rng.randint(4, 50), rng.choice((0.05, 0.2)))
        assert connected_components(g).count == 1


def test_gnp_graph_always_has_an_edge():
    rng = random.Random(6)
    for _ in range(50):
        assert gnp_graph(rng, rng.randint(2, 10), 0.01).m >= 1
