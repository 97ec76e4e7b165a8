"""The betweenness phase's helper process: the same bytes as in-process
work, and no process left behind.

`engine._use_helper` decides whether a phase forks the helper; the tests
replace it to force either path.
"""

from __future__ import annotations

import os
import random
import signal
import threading
from pathlib import Path

import pytest

from moddiv import CLUSTERING_G3, CLUSTERING_G4, EngineConfig, Graph, cli, engine
from moddiv.measures import BETWEENNESS
from moddiv.oracles import reference_corpus_graph

from conftest import require_dataset

HELPER = engine._BisectionHelper

two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs an affinity mask of two CPUs or more")


def _no_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def helpers(monkeypatch):
    """Every `_BisectionHelper` the runs start, with each job's members
    as `take` saw them."""
    started = []

    class Recorded(HELPER):
        def __init__(self, g, jobs):
            super().__init__(g, jobs)
            self.seen: list[tuple[int, frozenset, bool]] = []  # job, members, taken
            started.append(self)

        def take(self, i, members):
            bis = super().take(i, members)
            self.seen.append((i, frozenset(members), bis is not None))
            return bis

    monkeypatch.setattr(engine, "_BisectionHelper", Recorded)
    return started


def _open_fds() -> int | None:
    fds = Path("/proc/self/fd")
    return len(list(fds.iterdir())) if fds.is_dir() else None


def _force(monkeypatch, forked: bool) -> None:
    monkeypatch.setattr(engine, "_use_helper", lambda jobs: forked)


def _run_bytes(g: Graph, measure: str) -> tuple:
    result = engine.run_ccr_ebr(g, EngineConfig(measure=measure))
    return (result.jsonl, result.best_q, result.best_partition.assignment,
            result.dendrogram.to_json_obj(), result.dendrogram.to_newick())


def _both_paths(monkeypatch, g: Graph, measure: str) -> tuple:
    _force(monkeypatch, False)
    serial = _run_bytes(g, measure)
    _force(monkeypatch, True)
    forked = _run_bytes(g, measure)
    return serial, forked


def _cycle_blocks(gen, seed: int) -> Graph:
    """One `sparse-ebr` instance of the benchmark, ids in generator order."""
    n, edges, _ = gen.cycle_blocks(random.Random(f"sparse-ebr/{seed}/0"), 240, 6, 3, 12)
    return Graph(n, edges)


# -- the same bytes ----------------------------------------------------------


@pytest.mark.parametrize("dataset", ["karate", "lesmis"])
@pytest.mark.parametrize("measure", ["g3", "g4"])
def test_detect_artifacts_are_byte_identical_on_both_paths(
        tmp_path, monkeypatch, helpers, dataset, measure):
    path = require_dataset(dataset)
    out = {}
    for forked in (False, True):
        _force(monkeypatch, forked)
        out_dir = tmp_path / str(forked)
        code = cli.main(["detect", "--input", str(path), "--algo", "ccr-ebr",
                         "--measure", measure, "--out-dir", str(out_dir), "--no-timestamps"])
        assert code == 0
        out[forked] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert len(out[False]) == 5
    assert out[True] == out[False]
    assert len(helpers) == 1
    assert any(taken for _, _, taken in helpers[0].seen)


def test_a_seeded_corpus_runs_the_same_on_both_paths(monkeypatch, helpers):
    rng = random.Random(12345)
    for case in range(20):
        kind, g = reference_corpus_graph(rng)
        for measure in (CLUSTERING_G3, CLUSTERING_G4):
            serial, forked = _both_paths(monkeypatch, g, measure)
            assert forked == serial, (case, kind, measure)
    assert len(helpers) >= 20
    assert sum(taken for h in helpers for _, _, taken in h.seen) >= 20


@pytest.mark.parametrize("seed", [1, 7])
def test_a_sparse_ebr_instance_runs_the_same_on_both_paths(monkeypatch, helpers, gen, seed):
    serial, forked = _both_paths(monkeypatch, _cycle_blocks(gen, seed), CLUSTERING_G4)
    assert forked == serial
    [helper] = helpers
    assert len(helper.jobs) >= 2


def test_a_result_for_members_that_changed_is_not_taken(monkeypatch, helpers):
    # The helper claims every job (the phase claims none), so the phase
    # takes its results unless the members changed.  In the bridged case
    # 12 of this corpus with g4, job 2 loses or gains members through an
    # earlier accepted split's refinement before it is dequeued.
    monkeypatch.setattr(HELPER, "_claim", lambda self: None)
    rng = random.Random(12345)
    for _ in range(13):
        kind, g = reference_corpus_graph(rng)
    assert kind == "bridged"
    serial, forked = _both_paths(monkeypatch, g, CLUSTERING_G4)
    assert forked == serial
    [helper] = helpers
    stale = [(i, taken) for i, members, taken in helper.seen if members != helper.jobs[i][0]]
    assert stale == [(2, False)]
    assert all(taken for i, members, taken in helper.seen if members == helper.jobs[i][0])


def test_a_full_claim_pipe_leaves_the_surplus_to_the_phase():
    # far more claim tokens than a pipe holds: the write must not block
    g = Graph(2, [(0, 1)])
    jobs = [(frozenset((0, 1)), True)] * 100_000
    want = engine.bisect_community(g, engine.Subgraph(g, (0, 1)), BETWEENNESS)
    helper = HELPER(g, jobs)
    try:
        assert 0 < helper.offered < len(jobs)
        assert helper.offered % engine._TOKENS_PER_WRITE == 0
        assert helper.take(helper.offered, {0, 1}) is None
        assert helper.take(0, {0, 1}) == want
    finally:
        helper.close()
    assert _no_children()


# -- no process left behind ----------------------------------------------------


def test_no_helper_outlives_a_run(monkeypatch, helpers, gen):
    before = _open_fds()
    _force(monkeypatch, True)
    engine.run_ccr_ebr(_cycle_blocks(gen, 1), EngineConfig(measure=CLUSTERING_G4))
    assert len(helpers) == 1
    assert _no_children()
    assert _open_fds() == before  # both pipes closed


def test_no_helper_outlives_a_phase_that_raises(monkeypatch, helpers, gen):
    real = engine.refine

    def refine(*args):
        if helpers:
            raise RuntimeError("refine failed")
        return real(*args)

    _force(monkeypatch, True)
    monkeypatch.setattr(engine, "refine", refine)
    with pytest.raises(RuntimeError, match="refine failed"):
        engine.run_ccr_ebr(_cycle_blocks(gen, 1), EngineConfig(measure=CLUSTERING_G4))
    assert len(helpers) == 1
    assert _no_children()


def test_a_killed_helper_leaves_the_same_bytes(monkeypatch, helpers, gen):
    g = _cycle_blocks(gen, 1)
    killed = []
    real = HELPER.take

    def take(self, i, members):
        if not killed:
            os.kill(self.pid, signal.SIGKILL)
            killed.append(i)
        return real(self, i, members)

    _force(monkeypatch, False)
    serial = _run_bytes(g, CLUSTERING_G4)
    _force(monkeypatch, True)
    monkeypatch.setattr(HELPER, "take", take)
    assert _run_bytes(g, CLUSTERING_G4) == serial
    assert killed == [0]
    assert _no_children()


def test_a_helper_that_dies_holding_a_job_leaves_the_same_bytes(monkeypatch, helpers, gen):
    # the helper claims the first job and is killed before writing it; the
    # phase claims nothing, so every job comes back as the helper's
    def serve(self, result_w):
        os.read(self.claims, engine._TOKEN_BYTES)
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(HELPER, "_serve", serve)
    monkeypatch.setattr(HELPER, "_claim", lambda self: None)
    serial, forked = _both_paths(monkeypatch, _cycle_blocks(gen, 1), CLUSTERING_G4)
    assert forked == serial
    [helper] = helpers
    assert helper.seen and not any(taken for _, _, taken in helper.seen)
    assert _no_children()


def test_a_failed_fork_runs_the_phase_in_process(monkeypatch, helpers, gen):
    def fork():
        raise BlockingIOError("no process to spare")

    g = _cycle_blocks(gen, 1)
    _force(monkeypatch, False)
    serial = _run_bytes(g, CLUSTERING_G4)
    before = _open_fds()
    _force(monkeypatch, True)
    monkeypatch.setattr(engine.os, "fork", fork)
    assert _run_bytes(g, CLUSTERING_G4) == serial
    assert not helpers
    assert _open_fds() == before


# -- when the phase stays in-process -------------------------------------------


@two_cpus
def test_use_helper_needs_two_jobs_and_two_cpus(monkeypatch):
    assert engine._use_helper(2)
    assert not engine._use_helper(1)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0})
    assert not engine._use_helper(2)
    monkeypatch.undo()
    monkeypatch.delattr(engine.os, "fork")
    assert not engine._use_helper(2)


@two_cpus
def test_use_helper_refuses_while_another_thread_runs():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(10,))
    thread.start()
    try:
        assert not engine._use_helper(2)
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()
    assert engine._use_helper(2)


@two_cpus
def test_use_helper_refuses_while_sigchld_is_handled_or_ignored():
    for disposition in (signal.SIG_IGN, lambda signum, frame: None):
        previous = signal.signal(signal.SIGCHLD, disposition)
        try:
            assert not engine._use_helper(2)
        finally:
            signal.signal(signal.SIGCHLD, previous)
    assert engine._use_helper(2)


@two_cpus
@pytest.mark.parametrize("owner, name", [
    ("engine", "bisect_community"),
    ("engine", "reachable_within"),
    ("engine", "compute_scores"),
    ("engine", "rescore_after_removal"),
    ("measures", "edge_betweenness"),
    ("EdgeScoreTable", "removal_candidate"),
])
def test_use_helper_refuses_when_a_helper_call_is_wrapped(monkeypatch, owner, name):
    target = {"engine": engine, "measures": engine.measures,
              "EdgeScoreTable": engine.EdgeScoreTable}[owner]
    real = getattr(target, name)
    monkeypatch.setattr(target, name, lambda *a, **k: real(*a, **k))
    assert not engine._use_helper(2)
