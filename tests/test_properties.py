"""Property tests of the pipelines on random graphs (needs `hypothesis`)."""

from __future__ import annotations

import json
import random
from itertools import combinations
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
    compute_scores,
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
    clustering_pick_naive,
    engine_reference_mismatch,
    key_bound_violation,
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
        qs = [t.q for t in r.trace]
        assert all(b > a for a, b in zip(qs, qs[1:]))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_dendrogram_replays_from_its_trace_lines(g):
    for r in _runs(g):
        assert exported_tree(r) == replayed_tree(g, r.jsonl)


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
    _, got = refine(g, fast, fast_candidates, max_passes)
    _, want = refine_naive(g, naive, naive_candidates, max_passes)
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
            undo.append(("split", cid, parent, p.split_community(cid, side, members[0] in side)))
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
            got, want = modularity_q(g, p), _full_q(g, p)
            assert got == want and repr(got) == repr(want)
    got, want = modularity_q(g, p), _full_q(g, p)
    assert got == want and repr(got) == repr(want)


@settings(max_examples=100, deadline=None)
@given(st.one_of(graphs(), dense_graphs()), st.data())
def test_lazy_g3_pick_equals_a_scan_of_a_fresh_table(g, data):
    """Removing the pick or a random edge, step by step: after each removal
    the g3 pick and its key equal a full scan of a fresh table, bit for bit."""
    sub = Subgraph(g, range(g.n))
    table = compute_scores(CLUSTERING_G3, g, sub)
    while table.scores:
        fresh = compute_scores(CLUSTERING_G3, g, sub).scores
        assert key_bound_violation(table) is None
        pick = table.removal_candidate()
        assert pick == clustering_pick_naive(fresh)
        assert table.scores[pick].hex() == fresh[pick].hex()
        eid = pick if data.draw(st.booleans()) else data.draw(st.sampled_from(sorted(table.scores)))
        sub.remove_edge(*g.edges[eid])
        table = rescore_after_removal(table, g, sub, eid)
