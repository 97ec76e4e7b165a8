from __future__ import annotations

import json
import random

import pytest

from moddiv import (
    Graph,
    Partition,
    modularity_q,
    modularity_q_pairwise,
    move_q,
    partition_to_tsv,
)
from moddiv.modularity import _community, partition_to_json_obj
from moddiv.oracles import gnp_graph, random_dense_assignment


def edge_counts(p, v, target):
    """Edges from `v` into its own community and into `target`."""
    source = p.assignment[v]
    to_source = sum(p.assignment[w] == source for w, _ in p.graph.adj[v])
    to_target = sum(p.assignment[w] == target for w, _ in p.graph.adj[v])
    return to_source, to_target


def test_single_community_is_exactly_zero(barbell, k4, c5):
    for g in (barbell, k4, c5):
        assert modularity_q(g, Partition(g, [0] * g.n)) == 0.0


def test_single_edge_singletons_is_exactly_minus_half():
    g = Graph(2, [(0, 1)])
    assert modularity_q(g, Partition(g, [0, 1])) == -0.5


def test_barbell_split_value(barbell):
    p = Partition(barbell, [0, 0, 0, 1, 1, 1])
    q = modularity_q(barbell, p)
    assert abs(q - 5.0 / 14.0) < 1e-12
    assert abs(modularity_q_pairwise(barbell, p) - q) < 1e-12


def test_two_triangles_split_is_half(two_triangles):
    p = Partition(two_triangles, [0, 0, 0, 1, 1, 1])
    assert abs(modularity_q(two_triangles, p) - 0.5) < 1e-12


def test_fast_q_matches_pairwise_on_random_cases():
    rng = random.Random(67)
    for _ in range(50):
        n = rng.randint(2, 25)
        g = gnp_graph(rng, n, rng.choice((0.2, 0.5)))
        p = Partition(g, random_dense_assignment(rng, n, rng.randint(1, n)))
        assert abs(modularity_q(g, p) - modularity_q_pairwise(g, p)) < 1e-12


def test_move_q_bridge_endpoint_matches_recompute(barbell):
    # drag vertex 3 across the bridge into the left triangle's community
    p = Partition(barbell, [0, 0, 0, 1, 1, 1])
    q_before = modularity_q(barbell, p)
    to_source, to_target = edge_counts(p, 3, 0)
    assert (to_source, to_target) == (2, 1)  # vertices 4 and 5; the bridge to 2
    gain = move_q(
        barbell.degrees[3], to_source, to_target,
        p.communities[1].total_degree, p.communities[0].total_degree, barbell.m,
    )
    p.move(3, 0, to_source, to_target)
    q_after = modularity_q(barbell, p)
    assert abs((q_after - q_before) - gain) < 1e-12
    assert gain < 0  # pulling the bridge endpoint over hurts


def test_apply_move_updates_stats_incrementally():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(4, 20)
        g = gnp_graph(rng, n, 0.4)
        p = Partition(g, random_dense_assignment(rng, n, rng.randint(2, 4)))
        for _ in range(10):
            if p.n_communities < 2:
                break
            v = rng.randrange(n)
            source = p.assignment[v]
            target = rng.choice([c for c in sorted(p.communities) if c != source])
            p.move(v, target, *edge_counts(p, v, target))
            # a fresh partition of the same assignment counts from scratch
            ids = sorted(p.communities)
            fresh = Partition(g, [ids.index(c) for c in p.assignment])
            assert [
                (st.members, st.internal_twice, st.total_degree)
                for _, st in sorted(p.communities.items())
            ] == [
                (st.members, st.internal_twice, st.total_degree)
                for _, st in sorted(fresh.communities.items())
            ]


def test_apply_move_retires_emptied_community():
    g = Graph(3, [(0, 1), (1, 2)])
    p = Partition(g, [0, 0, 1])
    p.move(2, 0, 0, 1)
    assert p.n_communities == 1
    assert 1 not in p.communities
    assert p.assignment[2] == 0
    assert p.communities[0].members == {0, 1, 2}
    assert (p.communities[0].internal_twice, p.communities[0].total_degree) == (4, 4)


def test_split_community_stats(barbell):
    p = Partition(barbell, [0] * barbell.n)
    a, b = p.split_community(0, [0, 1, 2], [3, 4, 5])
    assert p.n_communities == 2
    assert p.members(a) == [0, 1, 2]
    assert p.members(b) == [3, 4, 5]
    assert p.communities[a].internal_twice == 6
    assert p.communities[a].total_degree == 7  # bridge endpoint has degree 3
    assert p.communities[b].total_degree == 7
    assert abs(modularity_q(barbell, p) - 5.0 / 14.0) < 1e-12


def test_split_community_requires_exact_partition(barbell):
    p = Partition(barbell, [0] * barbell.n)
    with pytest.raises(ValueError):
        p.split_community(0, [0, 1], [3, 4, 5])  # vertex 2 missing


@pytest.mark.parametrize("sides", [
    ([0, 0, 1, 2], [3, 4]),  # duplicate on the larger side
    ([0, 1], [2, 3, 3, 4, 5]),  # duplicate on the larger side, one too long
    ([0, 1, 2], [2, 3, 4, 5]),  # a vertex on both sides
    ([0, 1, 6], [2, 3, 4, 5]),  # foreign vertex on the smaller side
    ([0, 1, 2], [3, 4, 6]),  # foreign vertex on the larger side, 5 missing
    ([0, 1, 2], [3, 4, 4]),  # duplicate on a side of the right length
])
def test_split_community_rejects_duplicate_and_foreign_vertices(sides):
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    p = Partition(g, [0] * 6 + [1])
    with pytest.raises(ValueError):
        p.split_community(0, *sides)
    assert p.assignment == [0] * 6 + [1] and p._next_id == 2


def _state(p: Partition):
    return (
        list(p.assignment),
        {c: (set(st.members), st.internal_twice, st.total_degree)
         for c, st in p.communities.items()},
        p._next_id,
    )


def test_split_totals_equal_a_fresh_count():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(3, 30)
        g = gnp_graph(rng, n, rng.choice((0.1, 0.3, 0.6)))
        p = Partition(g, random_dense_assignment(rng, n, rng.randint(1, 4)))
        splittable = [c for c, st in p.communities.items() if len(st.members) > 1]
        if not splittable:
            continue
        cid = rng.choice(splittable)
        members = sorted(p.communities[cid].members)
        side = set(rng.sample(members, rng.randint(1, len(members) - 1)))
        a, b = p.split_community(
            cid, [v for v in members if v in side], [v for v in members if v not in side]
        )
        for c in (a, b):
            fresh = _community(g, set(p.communities[c].members))
            assert (p.communities[c].internal_twice, p.communities[c].total_degree) == (
                fresh.internal_twice, fresh.total_degree)
            assert all(p.assignment[v] == c for v in fresh.members)


def test_undoing_moves_and_a_split_restores_the_partition_exactly():
    rng = random.Random(31)
    emptied = 0
    for _ in range(80):
        n = rng.randint(3, 25)
        g = gnp_graph(rng, n, rng.choice((0.2, 0.4)))
        p = Partition(g, random_dense_assignment(rng, n, rng.randint(1, 5)))
        splittable = [c for c, st in p.communities.items() if len(st.members) > 1]
        if not splittable:
            continue
        cid = rng.choice(splittable)
        before = _state(p)
        parent = p.communities[cid]
        members = sorted(parent.members)
        cut = rng.randint(1, len(members) - 1)
        children = p.split_community(cid, members[:cut], members[cut:])
        moves = []
        for _ in range(rng.randint(0, 8)):
            v = rng.randrange(n)
            source = p.assignment[v]
            targets = [c for c in sorted(p.communities) if c != source]
            if not targets:
                break
            target = rng.choice(targets)
            p.move(v, target, *edge_counts(p, v, target))
            emptied += source not in p.communities
            moves.append((v, source))
        for v, source in reversed(moves):
            p.undo_move(v, source)
        p.unsplit(cid, parent, children)
        assert _state(p) == before
        assert p.communities[cid] is parent
    assert emptied  # some moves emptied a community that the undo recreated


def test_partition_requires_dense_ids(k3):
    with pytest.raises(ValueError):
        Partition(k3, [0, 2, 2])  # id 1 missing


def test_partition_rejects_wrong_length(k3):
    with pytest.raises(ValueError):
        Partition(k3, [0, 0])


def test_renumbered_orders_by_smallest_member():
    g = Graph(4, [(0, 1), (2, 3)])
    p = Partition(g, [1, 1, 0, 0])
    r = p.renumbered()
    assert r.assignment == [0, 0, 1, 1]


def test_partition_to_tsv_uses_labels_and_dense_ids():
    g = Graph(4, [(0, 1), (2, 3)], labels=["w", "x", "y", "z"])
    p = Partition(g, [1, 1, 0, 0])
    lines = partition_to_tsv(p).strip().splitlines()
    assert lines[0] == "# vertex\tcommunity"
    assert lines[1:] == ["w\t0", "x\t0", "y\t1", "z\t1"]


def test_partition_json_reports_q_and_stats(barbell):
    p = Partition(barbell, [0, 0, 0, 1, 1, 1])
    obj = partition_to_json_obj(p)
    assert abs(obj["q"] - 5.0 / 14.0) < 1e-12
    assert obj["n_communities"] == 2
    sizes = [c["size"] for c in obj["communities"]]
    assert sizes == [3, 3]
    assert json.loads(json.dumps(obj)) == obj


def test_move_context_validation(k3):
    p = Partition(k3, [0, 1, 1])
    with pytest.raises(ValueError):
        p.move(0, 0, 0, 0)  # source == target
    with pytest.raises(ValueError):
        p.move(0, 1, 3, 3)  # more incident edges than degree
    assert p.assignment == [0, 1, 1]


def test_modularity_requires_matching_graph(k3, k4):
    p = Partition(k3, [0, 0, 0])
    with pytest.raises(ValueError):
        modularity_q(k4, p)
