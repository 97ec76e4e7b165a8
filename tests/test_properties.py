"""Property tests of the pipelines on random graphs (needs `hypothesis`)."""

from __future__ import annotations

import json
import random
import re
from itertools import combinations
import tempfile
from contextlib import contextmanager, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from moddiv import (
    CLUSTERING_G3,
    CLUSTERING_G4,
    EngineConfig,
    Graph,
    Partition,
    Subgraph,
    compute_scores,
    engine,
    load_gml,
    modularity_q,
    refine,
    rescore_after_removal,
    run_ccr,
    run_ccr_ebr,
    write_gml,
)
from moddiv.cli import main
from moddiv.graph import reachable_within
from moddiv.oracles import (
    engine_reference_mismatch,
    fresh_mismatch,
    reference_corpus_graph,
    refine_naive,
)

from conftest import exported_tree, replayed_tree


@st.composite
def graphs(draw) -> Graph:
    """Graphs on 2..40 vertices with at least one edge, possibly disconnected."""
    n = draw(st.integers(2, 40))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)), min_size=1, max_size=3 * n
    ))
    # j < n - 1 is shifted past i, so no pair is a self-loop
    return Graph(n, [(i, j + (j >= i)) for i, j in pairs])


@st.composite
def dense_graphs(draw) -> Graph:
    """Graphs on 3..14 vertices, each pair an edge or not: many triangles."""
    n = draw(st.integers(3, 14))
    return Graph(n, [pair for pair in combinations(range(n), 2) if draw(st.booleans())])


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
            assert len(reachable_within(Subgraph(g, members), members[0])) == len(members)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_trace_q_strictly_increases(g):
    for r in _runs(g):
        qs = [t.q for t in r.dendrogram.trace]
        assert all(b > a for a, b in zip(qs, qs[1:]))


# Graphs whose `ccr-ebr` run ends with `final-refine` moves, with g4, g3 and
# g3 in turn; random graphs seldom reach one.
FINAL_REFINE_GRAPHS = (
    Graph(9, [(1, 2), (7, 4), (5, 6), (1, 7), (6, 8), (4, 2), (2, 8), (5, 4), (2, 3),
              (6, 0), (6, 5)]),
    Graph(12, [(1, 6), (6, 8), (2, 9), (4, 1), (4, 2), (4, 11), (3, 0), (7, 0), (5, 6),
               (5, 0), (11, 0)]),
    Graph(14, [(1, 12), (4, 1), (3, 1), (10, 1), (12, 11), (9, 5), (12, 5), (4, 7),
               (2, 13), (4, 5), (1, 7), (2, 4), (11, 7)]),
)


# Refinement empties both leaves under node 2 of its g4 `run_ccr` dendrogram.
EMPTIED_SUBTREE_GRAPH = Graph(9, [(3, 7), (3, 6), (3, 8), (2, 3), (6, 7), (0, 7), (2, 7),
                                  (1, 2), (0, 4), (5, 6), (0, 6), (0, 5), (2, 5), (0, 8)])


def test_newick_leaves_out_a_subtree_with_no_member():
    r = run_ccr(EMPTIED_SUBTREE_GRAPH, EngineConfig(measure=CLUSTERING_G4))
    assert [r.dendrogram.nodes[c].members for c in (5, 6)] == [[], []]
    assert r.dendrogram.to_newick() == "(((0,4,8),((1,2,3,7),(5,6))));\n"


def test_the_replay_examples_reach_final_refine_moves():
    for g, measure in zip(FINAL_REFINE_GRAPHS, (CLUSTERING_G4, CLUSTERING_G3, CLUSTERING_G3)):
        r = run_ccr_ebr(g, EngineConfig(measure=measure))
        assert r.dendrogram.final_moves
        assert any('"stage": "final-refine"' in line for line in r.jsonl)


@settings(max_examples=60, deadline=None)
@given(graphs())
@example(FINAL_REFINE_GRAPHS[0])
@example(FINAL_REFINE_GRAPHS[1])
@example(FINAL_REFINE_GRAPHS[2])
@example(EMPTIED_SUBTREE_GRAPH)
def test_dendrogram_replays_from_its_trace_lines(g):
    for r in _runs(g):
        assert exported_tree(r) == replayed_tree(g, r.jsonl)
        # the Newick text names every vertex once and holds no empty subtree
        newick = r.dendrogram.to_newick()
        assert "()" not in newick
        assert sorted(re.findall(r"[^(),;\n]+", newick)) == sorted(g.labels)


@contextmanager
def _checked_reconciles(reached):
    """Check, at every dequeue that reconciles kept clustering state, that
    the subgraph, the exact scores, the counts, the keys and the pick equal
    a fresh build of the community's members.  Counts into `reached` the
    reconciles that took in a member from the other side of the split that
    carved their state, and the free splits made from an inherited table."""
    real_reconcile, real_bisect = engine._reconcile, engine.bisect_community
    sibling = {}  # each side of a split -> the other side

    def reconcile(g, sub, table, removals, changed, members):
        other = sibling.get(frozenset(sub), ())
        reached["moved-across"] += any(v in other for v in members - sub.nbrs.keys())
        real_reconcile(g, sub, table, removals, changed, members)
        assert table.nbrs is sub.nbrs
        assert fresh_mismatch(g, table, Subgraph(g, members)) is None

    def bisect(g, sub, table, connected=False):
        bis = real_bisect(g, sub, table, connected)
        reached["inherited-free-split"] += table.cycles is not None and not bis.removals
        side = frozenset(bis.side)
        rest = frozenset(sub) - side
        sibling[side], sibling[rest] = rest, side
        return bis

    engine._reconcile, engine.bisect_community = reconcile, bisect
    try:
        yield
    finally:
        engine._reconcile, engine.bisect_community = real_reconcile, real_bisect


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_reconciled_state_equals_a_fresh_build(g):
    with _checked_reconciles({"moved-across": 0, "inherited-free-split": 0}):
        for _ in _runs(g):
            pass


def test_random_graphs_reach_the_rare_reconciles():
    """Graphs drawn as `graphs()` draws them reach both rare states the
    check above covers, so a fault in either path fails it."""
    rng = random.Random(19)
    reached = {"moved-across": 0, "inherited-free-split": 0}
    with _checked_reconciles(reached):
        for _ in range(150):
            n = rng.randint(2, 40)
            pairs = [(rng.randrange(n), rng.randrange(n - 1))
                     for _ in range(rng.randint(1, 3 * n))]
            for _ in _runs(Graph(n, [(i, j + (j >= i)) for i, j in pairs])):
                pass
    assert min(reached.values()) > 0, reached


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
    assert abs(modularity_q(p) - reported) < 1e-12


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_engine_equals_the_plain_reference(seed):
    _, g = reference_corpus_graph(random.Random(seed))
    for algo in ("ccr", "ccr-ebr"):
        for measure in (CLUSTERING_G3, CLUSTERING_G4):
            assert engine_reference_mismatch(g, algo, measure) is None


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(), st.integers(0, 2**32 - 1).map(
    lambda seed: reference_corpus_graph(random.Random(seed))[1])), st.data())
def test_refine_equals_the_naive_refine(g, data):
    """The kept outside counts skip only vertices that could not move: the
    moves, the partition and the candidates left behind are the naive
    sweep's, on random partitions and candidate sets, under any pass cap."""
    k = data.draw(st.integers(1, min(6, g.n)))
    assignment = [v if v < k else data.draw(st.integers(0, k - 1)) for v in range(g.n)]
    candidates = set(data.draw(st.lists(st.integers(0, g.n - 1), min_size=1)))
    max_passes = data.draw(st.sampled_from((1, 2, 3, 100)))
    fast, naive = Partition(g, assignment), Partition(g, assignment)
    fast_candidates, naive_candidates = set(candidates), set(candidates)
    _, got = refine(fast, fast_candidates, max_passes)
    _, want = refine_naive(naive, naive_candidates, max_passes)
    assert got == want
    assert fast.assignment == naive.assignment
    assert fast_candidates == naive_candidates
    assert fast.communities == naive.communities


def _full_q(g: Graph, p: Partition) -> float:
    """Modularity summed afresh over every community, in ascending id."""
    two_m = 2.0 * g.m
    q = 0.0
    for c in sorted(p.communities):
        record = p.communities[c]
        q += record.internal_twice / two_m - (record.total_degree / two_m) ** 2
    return q


def _move(p: Partition, v: int, target: int) -> None:
    source = p.assignment[v]
    tally = [p.assignment[w] for w, _ in p.graph.adj[v]]
    p.move(v, target, tally.count(source), tally.count(target))


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_running_q_equals_a_full_sum(g, data):
    """Splits, moves, and their undoing in reverse order, as a judged split
    makes them; a drain moves every member of a community out, retiring it,
    so that undoing it recreates it.  Q is read after a random subset of the
    steps, so the touched ids of several steps pile up between reads."""
    k = data.draw(st.integers(1, min(4, g.n)))
    p = Partition(g, [v if v < k else data.draw(st.integers(0, k - 1)) for v in range(g.n)])
    undo: list[tuple] = []  # ("split", cid, parent, children) or ("move", v, source)
    for _ in range(data.draw(st.integers(1, 30))):
        kind = data.draw(st.sampled_from(("split", "move", "drain", "undo")))
        ids = sorted(p.communities)
        if kind == "split":
            splittable = [c for c in ids if len(p.communities[c].members) > 1]
            if not splittable:
                continue
            cid = data.draw(st.sampled_from(splittable))
            members = sorted(p.communities[cid].members)
            side = data.draw(st.lists(st.sampled_from(members), min_size=1,
                                      max_size=len(members) - 1, unique=True))
            parent = p.communities[cid]
            undo.append(("split", cid, parent, p.split_community(cid, side)))
        elif kind in ("move", "drain") and len(ids) > 1:
            source = data.draw(st.sampled_from(ids))
            target = data.draw(st.sampled_from([c for c in ids if c != source]))
            movers = sorted(p.communities[source].members)
            if kind == "move":
                movers = [data.draw(st.sampled_from(movers))]
            for v in movers:
                _move(p, v, target)
                undo.append(("move", v, source))
            if kind == "drain":
                assert source not in p.communities
        elif kind == "undo" and undo:
            step = undo.pop()
            if step[0] == "move":
                p.undo_move(step[1], step[2])
            else:
                p.unsplit(*step[1:])
        if data.draw(st.booleans()):
            got, want = modularity_q(p), _full_q(g, p)
            assert got == want and repr(got) == repr(want)
    got, want = modularity_q(p), _full_q(g, p)
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("kind", [CLUSTERING_G3, CLUSTERING_G4])
@settings(max_examples=100, deadline=None)
@given(g=st.one_of(graphs(), dense_graphs()), data=st.data())
def test_lazy_pick_equals_a_scan_of_a_fresh_table(kind, g, data):
    """Removing the pick or a random edge, step by step: after each removal
    the clustering pick and its key equal a full scan of a fresh table, bit
    for bit."""
    sub = Subgraph(g, range(g.n))
    table = compute_scores(kind, g, sub)
    while table.scores:
        assert fresh_mismatch(g, table, sub) is None
        pick = table.removal_candidate()
        eid = pick if data.draw(st.booleans()) else data.draw(st.sampled_from(sorted(table.scores)))
        sub.remove_edge(*g.edges[eid])
        table = rescore_after_removal(table, g, sub, eid)
