"""The benchmark's tracer still finds every engine hook it patches.

`perfbench/tracer.py` wraps functions of `moddiv.engine` and friends by
name; a refactor that renames or unbinds one makes `install()` raise, and
one that moves a call out of a hooked name makes a counter read wrong.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from moddiv import cli, engine

from conftest import require_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_detect_counts_one_search_per_bisection_and_removal(tmp_path, monkeypatch):
    karate = require_dataset("karate")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    # wrapped before the tracer installs, so its uninstall leaves these
    # for monkeypatch to undo
    proven = []
    skipped = []  # clustering removals whose kept cycle count skips the search
    real, real_rescore = engine.bisect_community, engine.rescore_after_removal

    def bisect(g, sub, measure, table=None, connected=False):
        proven.append(connected)
        return real(g, sub, measure, table, connected)

    def rescore(prev, g, sub, eid):
        skipped.append(prev.cycles is not None and prev.cycles[eid] > 0)
        return real_rescore(prev, g, sub, eid)

    monkeypatch.setattr(engine, "bisect_community", bisect)
    monkeypatch.setattr(engine, "rescore_after_removal", rescore)

    tracer = Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        code = cli.main([
            "detect", "--input", str(karate), "--algo", "ccr-ebr",
            "--out-dir", str(tmp_path), "--no-timestamps",
        ])
        metrics = tracer.layer_metrics(mark)
    finally:
        tracer.uninstall()
    assert code == 0
    assert metrics["engine.bisections"] == len(proven)
    unproven = len(proven) - sum(proven)
    assert metrics["graph.reach_calls"] == metrics["engine.removals"] + unproven - sum(skipped)
    assert sum(skipped) > 0
    assert sum(proven) > 0
    assert (metrics["engine.removals"], metrics["engine.bisections"]) == (66, 11)
    # the tracer counts accepts through `DetectionResult.history`, the lines parsed
    lines = (tmp_path / "trace.jsonl").read_text(encoding="utf-8").splitlines()
    accepts = sum(json.loads(line)["type"] == "accept" for line in lines)
    assert accepts > 0
    assert metrics["engine.accept_ratio"] * metrics["engine.bisections"] == pytest.approx(accepts)
