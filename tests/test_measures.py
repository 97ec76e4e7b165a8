from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from itertools import combinations

import pytest

from moddiv import (
    BETWEENNESS,
    CLUSTERING_G3,
    CLUSTERING_G4,
    EdgeScoreTable,
    Graph,
    Subgraph,
    compute_scores,
    edge_betweenness,
    edge_clustering_g3,
    edge_clustering_g4,
    engine,
    load_gml,
    rescore_after_removal,
)
from moddiv.cli import main
from moddiv.measures import add_cycles, lower_keys
from moddiv.oracles import (
    betweenness_naive,
    clustering_pick_naive,
    cycle_count_naive,
    fresh_mismatch,
    gnp_connected,
    key_bound_violation,
)

from conftest import require_dataset


def _whole(g: Graph) -> Subgraph:
    return Subgraph(g, range(g.n))


# -- betweenness -------------------------------------------------------------


def test_betweenness_path(path3):
    table = edge_betweenness(path3, _whole(path3))
    assert table.scores == {0: 2.0, 1: 2.0}


def test_betweenness_k4_all_ones(k4):
    table = edge_betweenness(k4, _whole(k4))
    assert all(abs(s - 1.0) < 1e-12 for s in table.scores.values())


def test_betweenness_star_spokes(star5):
    # spoke (0, i) carries (i, 0) plus (i, j) for the three other leaves
    table = edge_betweenness(star5, _whole(star5))
    assert all(abs(s - 4.0) < 1e-12 for s in table.scores.values())


def test_betweenness_c5(c5):
    table = edge_betweenness(c5, _whole(c5))
    assert all(abs(s - 3.0) < 1e-12 for s in table.scores.values())


def test_betweenness_subset_restriction(barbell):
    table = edge_betweenness(barbell, Subgraph(barbell, [0, 1, 2]))
    assert set(table.scores) == {0, 1, 2}
    assert all(abs(s - 1.0) < 1e-12 for s in table.scores.values())


def test_betweenness_matches_naive_on_random_graphs():
    rng = random.Random(31)
    for _ in range(15):
        g = gnp_connected(rng, rng.randint(4, 25), rng.choice((0.2, 0.5)))
        fast = edge_betweenness(g, _whole(g))
        slow = betweenness_naive(g, range(g.n))
        assert set(fast.scores) == set(slow.scores)
        for eid, s in slow.scores.items():
            assert abs(fast.scores[eid] - s) < 1e-9


# -- clustering coefficients -------------------------------------------------


def test_g3_triangle_scores(k3):
    table = edge_clustering_g3(k3, _whole(k3))
    assert table.scores == {0: 2.0, 1: 2.0, 2: 2.0}


def test_g3_pendant_edges_are_infinite(path3, star5):
    for g in (path3, star5):
        table = edge_clustering_g3(g, _whole(g))
        assert all(math.isinf(s) for s in table.scores.values())


def test_g3_barbell_bridge_is_lowest(barbell):
    table = edge_clustering_g3(barbell, _whole(barbell))
    assert table.scores[3] == 0.5
    for eid in (0, 1, 2, 4, 5, 6):
        assert table.scores[eid] == 2.0
    assert table.removal_candidate() == 3


def test_g3_k4(k4):
    # two triangles through each edge, degrees all 3: (2 + 1) / 2
    table = edge_clustering_g3(k4, _whole(k4))
    assert all(s == 1.5 for s in table.scores.values())


def test_g4_cycles(c4, c5, k4):
    t4 = edge_clustering_g4(c4, _whole(c4))
    assert all(s == 2.0 for s in t4.scores.values())
    t5 = edge_clustering_g4(c5, _whole(c5))
    assert all(s == 1.0 for s in t5.scores.values())
    # K4 edge: two 4-cycles, S = 2*2 - 2 common neighbors = 2
    tk = edge_clustering_g4(k4, _whole(k4))
    assert all(s == 1.5 for s in tk.scores.values())


def test_g4_pendant_edges_are_infinite(star5):
    table = edge_clustering_g4(star5, _whole(star5))
    assert all(math.isinf(s) for s in table.scores.values())


def _four_cycles_by_quadruples(g: Graph, present: set, eid: int) -> int:
    # brute force: a 4-cycle through (u, v) picks two more vertices a, b with
    # u-a, a-b, b-v edges (or the mirrored orientation)
    u, v = g.edges[eid]
    def has(x, y):
        return (min(x, y), max(x, y)) in present
    count = 0
    others = [x for x in range(g.n) if x != u and x != v]
    for a, b in combinations(others, 2):
        if has(u, a) and has(a, b) and has(b, v):
            count += 1
        if has(u, b) and has(b, a) and has(a, v):
            count += 1
    return count


def test_cycle_counts_match_quadruple_enumeration():
    rng = random.Random(17)
    for _ in range(10):
        g = gnp_connected(rng, rng.randint(5, 30), rng.choice((0.2, 0.4)))
        sub = _whole(g)
        present = set(g.edges)
        for eid in range(g.m):
            naive = cycle_count_naive(g, sub, eid, 4)
            brute = _four_cycles_by_quadruples(g, present, eid)
            assert naive == brute


def test_g4_scores_match_naive_counts():
    rng = random.Random(23)
    for _ in range(8):
        g = gnp_connected(rng, rng.randint(5, 25), 0.4)
        sub = _whole(g)
        table = edge_clustering_g4(g, sub)
        for eid, (u, v) in enumerate(g.edges):
            z = cycle_count_naive(g, sub, eid, 4)
            shared = cycle_count_naive(g, sub, eid, 3)
            denom = (g.degrees[u] - 1) * (g.degrees[v] - 1) - shared
            if denom <= 0:
                assert math.isinf(table.scores[eid])
            else:
                assert abs(table.scores[eid] - (z + 1) / denom) < 1e-12


def test_cycle_count_naive_fixtures(k4, c4, c5):
    assert cycle_count_naive(k4, _whole(k4), 0, 3) == 2
    assert cycle_count_naive(c4, _whole(c4), 0, 4) == 1
    assert cycle_count_naive(c5, _whole(c5), 0, 3) == 0


# -- score table mechanics ---------------------------------------------------


def test_removal_candidate_tie_breaks_to_smallest_edge_id(k3, path3):
    t = edge_clustering_g3(k3, _whole(k3))
    assert t.removal_candidate() == 0  # all tie at 2.0
    b = edge_betweenness(path3, _whole(path3))
    assert b.removal_candidate() == 0  # both tie at 2.0, max rule


def test_removal_candidate_all_infinite_falls_back_to_smallest(star5):
    for kind in (CLUSTERING_G3, CLUSTERING_G4):
        sub = _whole(star5)
        t = compute_scores(kind, star5, sub)
        assert t.removal_candidate() == 0
        sub.remove_edge(0, 1)
        t = rescore_after_removal(t, star5, sub, 0)
        assert t.removal_candidate() == 1  # the removed edge's entry is discarded


@pytest.mark.parametrize("kind", [CLUSTERING_G3, CLUSTERING_G4])
def test_removal_candidate_on_an_all_tie_clique(kind):
    # every K5 edge ties; removing the picks one by one keeps the scan's choice
    g = Graph(5, list(combinations(range(5), 2)))
    sub = _whole(g)
    t = compute_scores(kind, g, sub)
    assert len(set(t.scores.values())) == 1
    while t.scores:
        eid = t.removal_candidate()
        assert eid == clustering_pick_naive(compute_scores(kind, g, sub).scores)
        sub.remove_edge(*g.edges[eid])
        t = rescore_after_removal(t, g, sub, eid)


def test_removal_candidate_prefers_finite_minimum(barbell):
    t = edge_clustering_g3(barbell, _whole(barbell))
    assert t.removal_candidate() == 3  # bridge at 0.5 beats triangles at 2.0


def test_betweenness_candidate_takes_maximum(barbell):
    t = edge_betweenness(barbell, _whole(barbell))
    assert t.removal_candidate() == 3  # the bridge carries all cross traffic


def test_to_tsv_sorted_with_inf_sentinel(star5):
    t = edge_clustering_g3(star5, _whole(star5))
    lines = t.to_tsv(star5).strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 5
    assert all(line.endswith("inf") for line in lines[1:])


def test_to_tsv_orders_by_score_then_edge_id(barbell):
    t = edge_clustering_g3(barbell, _whole(barbell))
    rows = t.to_tsv(barbell).strip().splitlines()[1:]
    scores = [row.split("\t")[2] for row in rows]
    assert scores[0] == "0.5"  # the bridge comes first


# -- rescoring ---------------------------------------------------------------


def test_rescore_after_bridge_removal_keeps_triangles(barbell):
    sub = _whole(barbell)
    table = edge_clustering_g3(barbell, sub)
    sub.remove_edge(2, 3)
    assert rescore_after_removal(table, barbell, sub, 3) is table  # in place
    assert set(table.scores) == {0, 1, 2, 4, 5, 6}
    assert all(table.scores[eid] == 2.0 for eid in table.scores)


def test_rescore_matches_full_recompute_g3_and_g4():
    # at every step of random removal sequences, the rescored table's exact
    # scores are a fresh table's scores, its keys are lower bounds the heap
    # holds, it picks what a scan of them picks with the fresh score, and
    # it keeps exact triangle (g3) or 4-cycle (g4) counts
    rng = random.Random(41)
    for kind in (CLUSTERING_G3, CLUSTERING_G4):
        for _ in range(12):
            g = gnp_connected(rng, rng.randint(5, 20), rng.choice((0.2, 0.4)))
            sub = Subgraph(g, rng.sample(range(g.n), rng.randint(3, g.n)))
            table = compute_scores(kind, g, sub)
            while table.scores:
                assert fresh_mismatch(g, table, sub) is None
                order = 3 if kind == CLUSTERING_G3 else 4
                counts = {eid: cycle_count_naive(g, sub, eid, order) for eid in table.scores}
                assert table.cycles == counts
                # remove the pick, as bisection does, or any other edge
                pick = table.removal_candidate()
                eid = pick if rng.random() < 0.5 else rng.choice(sorted(table.scores))
                sub.remove_edge(*g.edges[eid])
                table = rescore_after_removal(table, g, sub, eid)


@pytest.mark.parametrize("kind", [CLUSTERING_G3, CLUSTERING_G4])
def test_removal_rescores_exactly_the_edges_whose_count_fell(kind):
    # After every removal the kept counts are exact, every edge whose count
    # changed has its exact score as key with that key on the heap, and no
    # other key moved: a fresh build would still accept a key that is too
    # low, or one left behind.  The triangle 0-1-2 with the pendant 3 on
    # corner 2 loses (0, 1) first, leaving 0 and 1 with degree 1 and, under
    # g3, (0, 2) and (1, 2) at +inf.
    rng = random.Random(47)
    order = 3 if kind == CLUSTERING_G3 else 4
    pendant = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    cases = [(pendant, [0], range(4))]
    for _ in range(12):
        g = gnp_connected(rng, rng.randint(5, 24), rng.choice((0.2, 0.4, 0.6)))
        cases.append((g, [], rng.sample(range(g.n), rng.randint(3, g.n))))
    for g, forced, members in cases:
        sub = Subgraph(g, members)
        table = compute_scores(kind, g, sub)
        while table.scores:
            pick = table.removal_candidate()
            if forced:
                eid = forced.pop()
            else:
                eid = pick if rng.random() < 0.5 else rng.choice(sorted(table.scores))
            keys, counts = dict(table.scores), dict(table.cycles)
            sub.remove_edge(*g.edges[eid])
            table = rescore_after_removal(table, g, sub, eid)
            assert table.cycles == {e: cycle_count_naive(g, sub, e, order) for e in table.scores}
            held = set(table.heap)
            for e, key in table.scores.items():
                if table.cycles[e] != counts[e]:
                    assert key == table.score(e)
                    assert (key, e) in held
                else:
                    assert key == keys[e]
            if g is pendant and eid == 0 and kind == CLUSTERING_G3:
                assert (table.scores[1], table.scores[2]) == (math.inf, math.inf)


@pytest.mark.parametrize("kind", [CLUSTERING_G3, CLUSTERING_G4])
def test_additions_lower_keys_and_do_nothing_else(kind):
    # A kept state loses random edges, then gets a batch of them back and
    # one vertex inserted, as `_reconcile` adds them.  `add_cycles` only
    # counts: it changes no key and pushes nothing.  `lower_keys` then
    # lowers each key at a vertex whose degree rose to the smaller of the
    # key and the exact score, gives each new edge its exact score, and
    # leaves every other key alone.  A fresh build accepts any key at most
    # the exact score, so it cannot tell a key lowered too far.
    rng = random.Random(53)
    for _ in range(12):
        g = gnp_connected(rng, rng.randint(6, 24), rng.choice((0.2, 0.4, 0.6)))
        inserted = rng.randrange(g.n)
        members = [v for v in range(g.n) if v != inserted]
        sub = Subgraph(g, members)
        table = compute_scores(kind, g, sub)
        removed = rng.sample(sorted(table.scores), len(table.scores) // 3)
        for eid in removed:
            sub.remove_edge(*g.edges[eid])
            rescore_after_removal(table, g, sub, eid)
        readd = rng.sample(removed, rng.randint(1, len(removed)))
        keys, heap = dict(table.scores), list(table.heap)
        rose, added = set(), set()
        for eid in readd:
            add_cycles(table, eid)
            sub.add_edge(*g.edges[eid], eid)
            rose.update(g.edges[eid])
            added.add(eid)
        sub.add_vertex(inserted)
        for w, eid in g.adj[inserted]:
            if w in sub.nbrs:
                add_cycles(table, eid)
                sub.add_edge(inserted, w, eid)
                rose.add(w)
                added.add(eid)
        rose.add(inserted)
        assert table.scores == keys
        assert table.heap == heap
        lower_keys(table, rose)
        at_rose = {e for x in rose for e in sub.nbrs[x].values()}
        for e, key in table.scores.items():
            if e in added:
                assert key == table.score(e)
            elif e in at_rose:
                assert key == min(keys[e], table.score(e))
            else:
                assert key == keys[e]
        fresh = Subgraph(g, range(g.n))
        for eid in set(removed) - set(readd):
            fresh.remove_edge(*g.edges[eid])
        assert fresh_mismatch(g, table, fresh) is None


def test_g3_rescore_leaves_scores_that_can_only_rise_as_lower_bounds():
    # removing (0, 1) leaves d_0 = 2: (0, 2) has d_2 = 3 = d_0 + 1, so its
    # denominator falls from 2 to 1 and its score rises to 1.0; (0, 3) has
    # d_3 = 2 = d_0 and keeps its score.  The removed edge closed no
    # triangle, so both keep their key and their one heap entry until the
    # pick meets (0, 2) on top and puts it back with its exact score.
    g = Graph(8, [(0, 1), (0, 2), (0, 3), (2, 4), (2, 5), (3, 6), (1, 7)])
    sub = _whole(g)
    table = edge_clustering_g3(g, sub)
    assert (table.scores[1], table.scores[2]) == (0.5, 1.0)
    sub.remove_edge(0, 1)
    table = rescore_after_removal(table, g, sub, 0)
    assert (table.scores[1], table.scores[2]) == (0.5, 1.0)
    assert (table.score(1), table.score(2)) == (1.0, 1.0)
    assert {e: table.score(e) for e in table.scores} == edge_clustering_g3(g, sub).scores
    assert key_bound_violation(table) is None
    assert [e for _, e in table.heap].count(1) == 1
    assert [e for _, e in table.heap].count(2) == 1
    assert table.removal_candidate() == 1  # a tie at 1.0 with (0, 3)
    assert table.scores[1] == 1.0
    assert [e for _, e in table.heap].count(1) == 1


def test_g4_rescore_leaves_scores_that_can_only_rise_as_lower_bounds():
    # K4 on 0..3 less (1, 3).  Removing (2, 3) breaks the one 4-cycle
    # 2-3-0-1, so (0, 1), (0, 3) and (1, 2) lose it and are rescored.
    # (0, 2) closes no 4-cycle and keeps its count.  Its end 2 lost the
    # neighbour 3, which 0 also has, so its denominator
    # (k_0 - 1)(k_2 - 1) - |N(0) & N(2)| falls by (k_0 - 1) - 1, from 2 to
    # 1, and its score rises from 0.5 to 1.0 under a key left at 0.5.  The
    # pick meets that key on top, puts it back at 1.0, and takes (0, 1): a
    # tie at 1.0, broken toward the smaller edge id.
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    sub = _whole(g)
    table = edge_clustering_g4(g, sub)
    assert table.cycles == {0: 1, 1: 0, 2: 1, 3: 1, 4: 1}
    assert table.scores[1] == 0.5
    sub.remove_edge(2, 3)
    table = rescore_after_removal(table, g, sub, 4)
    assert table.cycles == {0: 0, 1: 0, 2: 0, 3: 0}
    assert (table.scores[1], table.score(1)) == (0.5, 1.0)
    assert key_bound_violation(table) is None
    fresh = edge_clustering_g4(g, sub).scores
    assert {e: table.score(e) for e in table.scores} == fresh
    pick = table.removal_candidate()
    assert pick == clustering_pick_naive(fresh) == 0
    assert table.scores[pick] == fresh[pick] == 1.0
    assert table.scores[1] == 1.0


def test_g3_rescore_pushes_at_most_two_entries_per_lost_triangle():
    # K5 on 0..4, and vertex 5 joined to 0 and to the leaves 6..10; edge ids
    # 0..9 are the K5 edges in `combinations` order, 10 is (0, 5), 11 (5, 6)
    g = Graph(11, [*combinations(range(5), 2), (0, 5), *((5, x) for x in range(6, 11))])
    sub = _whole(g)
    table = edge_clustering_g3(g, sub)
    heap, keys = list(table.heap), dict(table.scores)
    # (5, 6) closes no triangle: nothing is pushed and no key changes
    sub.remove_edge(5, 6)
    rescore_after_removal(table, g, sub, 11)
    del keys[11]
    assert table.heap == heap
    assert table.scores == keys
    # (0, 1) closes t = 3 triangles, with 2, 3 and 4: (0, x) and (1, x) each
    # lose one and get one push, 2t in all
    sub.remove_edge(0, 1)
    rescore_after_removal(table, g, sub, 0)
    assert len(table.heap) == len(heap) + 2 * 3
    assert {e for e in table.scores if table.scores[e] != keys[e]} == {1, 2, 3, 4, 5, 6}
    # d_0 fell from 5 to 4, so (0, 5) rose from 1/4 to 1/3 and kept its key
    assert (table.scores[10], table.score(10)) == (0.25, 1 / 3)
    assert key_bound_violation(table) is None
    assert table.removal_candidate() == 10
    assert table.scores[10] == 1 / 3


def test_heap_pick_after_a_score_returns_to_an_earlier_value():
    # edge 3 = (3, 5) scores 1.0, then 2.0 once (0, 5) is gone, then 1.0
    # again once (3, 4) breaks its triangle.  In between, the pick meets its
    # first heap entry on top and puts it back with key 2.0, and that entry
    # goes stale when the triangle breaks.
    g = Graph(6, [(0, 5), (2, 3), (3, 4), (3, 5), (4, 5)])
    sub = _whole(g)
    table = edge_clustering_g3(g, sub)
    history = [table.score(3)]
    picks = [table.removal_candidate()]
    for eid in (0, 2, 3):
        sub.remove_edge(*g.edges[eid])
        table = rescore_after_removal(table, g, sub, eid)
        if 3 in table.scores:
            history.append(table.score(3))
        picks.append(table.removal_candidate())
        want = edge_clustering_g3(g, sub).scores
        assert picks[-1] == clustering_pick_naive(want)
        assert table.scores[picks[-1]] == want[picks[-1]]
    assert history == [1.0, 2.0, 1.0]
    assert picks == [3, 2, 3, 1]


@pytest.mark.parametrize("kind", [CLUSTERING_G3, CLUSTERING_G4])
def test_rescoring_keeps_the_heap_within_twice_the_live_scores(gen, kind):
    n, edges, _ = gen.planted_partition(random.Random(1), 80, 4, 12.0, 2.0)
    g = Graph(n, edges)
    sub = _whole(g)
    table = compute_scores(kind, g, sub)
    while table.scores:
        eid = table.removal_candidate()
        sub.remove_edge(*g.edges[eid])
        table = rescore_after_removal(table, g, sub, eid)
        assert len(table.heap) <= 2 * len(table.scores)


def test_rescore_betweenness_is_full_recompute(barbell):
    sub = _whole(barbell)
    table = edge_betweenness(barbell, sub)
    sub.remove_edge(0, 1)
    table = rescore_after_removal(table, barbell, sub, 0)
    full = edge_betweenness(barbell, sub)
    assert table.scores == full.scores


def test_compute_scores_rejects_unknown_kind(k3):
    with pytest.raises(ValueError):
        compute_scores("nonsense", k3, _whole(k3))


def test_degrees_follow_removals_within_subset(barbell):
    # degree inputs to the clustering denominator come from the working
    # graph restricted to the subset, so removing an edge must shift scores
    sub = _whole(barbell)
    before = edge_clustering_g3(barbell, sub).scores[0]
    sub.remove_edge(1, 2)  # edge 2, inside the first triangle
    after = edge_clustering_g3(barbell, sub).scores[0]
    assert before == 2.0
    assert after != before


# -- pinned outputs ------------------------------------------------------------
# Bit-exact values from before g4 kept its 4-cycle counts and Brandes kept
# predecessor lists.  The 1e-9 oracles cannot see a change in the order of
# float additions; these can.

# sha256 of the `moddiv measures` TSV on lesmis.
PINNED_MEASURES_SHA256 = {
    "g4": "7fc5455b809161a726cf81152bf50a94694845c0b743ca5976b5c0443e152bb8",
    "betweenness": "02cffe69108f660c31b62605121a2def14db696ee20d7ff66b87be1417ae33a9",
}


@pytest.mark.parametrize("measure", sorted(PINNED_MEASURES_SHA256))
def test_measures_tsv_matches_pinned_sha256(measure):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["measures", "--input", str(require_dataset("lesmis")), "--measure", measure])
    assert code == 0
    got = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == PINNED_MEASURES_SHA256[measure]


def test_betweenness_after_a_removal_chain_matches_pinned_repr():
    # five highest-betweenness removals on karate, then the sha256 of the
    # repr of every remaining score
    g = load_gml(require_dataset("karate"))
    sub = _whole(g)
    table = edge_betweenness(g, sub)
    chain = []
    for _ in range(5):
        eid = table.removal_candidate()
        chain.append(eid)
        sub.remove_edge(*g.edges[eid])
        table = rescore_after_removal(table, g, sub, eid)
    assert chain == [15, 1, 7, 45, 52]
    got = hashlib.sha256(repr(sorted(table.scores.items())).encode()).hexdigest()
    assert got == "b8449dcb3b2f16f4bee2b71d35fb7e9faa4a03ceff5f5eed694fc9bd93f21ddc"


def test_g4_run_on_a_planted_n400_graph_matches_pinned_history(gen):
    # about 50 s when every removal recounted the 4-cycles around it
    n, edges, _ = gen.planted_partition(random.Random(1), 400, 8, 16, 4)
    result = engine.run_ccr(Graph(n, edges), engine.EngineConfig(measure=CLUSTERING_G4))
    got = hashlib.sha256("".join(result.jsonl).encode()).hexdigest()
    assert got == "540e0fa285ed987546af310fe745975597c3188efffda52a8ced6e718b57cf3a"
    assert result.best_q == 0.6684360517158535
    assert result.best_partition.n_communities == 8


def test_g3_run_on_a_planted_n800_graph_matches_pinned_history(gen):
    # m=16386; the split test and the g3 rescoring dominate this run
    n, edges, _ = gen.planted_partition(random.Random(1), 800, 8, 33, 8)
    result = engine.run_ccr(Graph(n, edges))
    got = hashlib.sha256("".join(result.jsonl).encode()).hexdigest()
    assert got == "04df2bcf9bae4ae731ba97edb9bd3c3afe0834afcf59bfb1e6f58044bc618eec"
    assert result.best_q == 0.68200430437137
    assert result.best_partition.n_communities == 8
