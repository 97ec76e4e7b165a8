"""The betweenness phase's helper process: the same bytes as in-process
work, and no process left behind.

`engine._use_helper` decides whether a phase forks the helper; the tests
replace it to force either path.
"""

from __future__ import annotations

import marshal
import os
import random
import select
import signal
import threading
import time
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
    as `take` saw them.

    Before its first `take`, a helper waits, for at most 30 s, until the
    helper process has written a result: on a busy host the phase could
    otherwise set the mark past every job before the helper process runs
    at all, and no result would be taken."""
    started = []

    class Recorded(HELPER):
        def __init__(self, g, jobs):
            super().__init__(g, jobs)
            self.seen: list[tuple[int, frozenset, bool]] = []  # job, members, taken
            started.append(self)

        def take(self, i, members):
            if not self.seen:
                select.select([self.results], [], [], 30)
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
            result.dendrogram.to_json_text(), result.dendrogram.to_newick())


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


def _drained(self, i, members, real=HELPER.take):
    """`take`, after reading the results pipe to its end."""
    while self._receive(wait=True):
        pass
    return real(self, i, members)


def test_a_result_for_members_that_changed_is_not_taken(monkeypatch, helpers):
    # The first take reads every result before it sets the mark, so the
    # helper makes them all, and the phase takes each one unless the
    # members changed.  In the bridged case 12 of this corpus with g4, job
    # 2 loses or gains members through an earlier accepted split's
    # refinement before it is dequeued.
    monkeypatch.setattr(HELPER, "take", _drained)
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


def _bisect(g, members, connected=False):
    """The betweenness bisection of a fresh subgraph of `members`, with its table."""
    sub = engine.Subgraph(g, members)
    return engine.bisect_community(g, sub, engine.compute_scores(BETWEENNESS, g, sub), connected)


def _take_in_order(helper, jobs, want) -> tuple[set[int], set[int]]:
    """Take every job in order, as the phase does, bisecting in-process the
    ones the helper does not hand over; every result must equal `want`.
    Returns the jobs taken and the jobs made in-process."""
    g = helper.g
    taken, made = set(), set()
    for i, (members, connected) in enumerate(jobs):
        bis = helper.take(i, set(members))
        if bis is None:
            made.add(i)
            bis = _bisect(g, members, connected)
        else:
            taken.add(i)
        assert bis == want, i
    return taken, made


def test_many_jobs_taken_in_order_equal_in_process_bisections():
    # far more results than a pipe holds: the helper waits on the full pipe
    # until the phase reads it, and neither process blocks for good
    g = Graph(3, [(0, 1), (1, 2)])
    jobs = [(frozenset((0, 1, 2)), True)] * 4000
    want = _bisect(g, (0, 1, 2))
    record = marshal.dumps((len(jobs), want.side, want.removals))
    assert len(jobs) * (4 + len(record)) > 2 * 65536
    helper = HELPER(g, jobs)
    try:
        assert helper._receive(wait=True)  # the helper's first result
        time.sleep(0.2)  # it fills the pipe while the phase is not reading
        taken, _ = _take_in_order(helper, jobs, want)
    finally:
        helper.close()
    assert len(jobs) - 1 in taken
    assert _no_children()


def test_the_helper_stops_where_the_phase_is():
    # The helper bisects from the far end and leaves once the mark passes
    # its next job, so of the jobs the phase made itself, the helper wrote
    # at most the one it had started as the mark passed it.
    n = 40
    g = Graph(n, [(v, (v + 1) % n) for v in range(n)])
    jobs = [(frozenset(range(n)), True)] * 200
    want = _bisect(g, range(n))
    helper = HELPER(g, jobs)
    try:
        taken, made = _take_in_order(helper, jobs, want)
        while helper._receive(wait=True):  # to the pipe's end: the helper left
            pass
        assert taken and made
        assert len(helper.done) <= 1
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
    # the helper is killed before it writes its first job, the last one:
    # the phase makes the jobs below it as the helper's unreached ones, and
    # the last one once it reads the pipe's end waiting for it
    def serve(self, result_w):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(HELPER, "_serve", serve)
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
