"""The benchmark's tracer still finds every engine hook it patches.

`perfbench/tracer.py` wraps functions of `moddiv.engine` and friends by
name; a refactor that renames or unbinds one makes `install()` raise, and
one that moves a call out of a hooked name makes a counter read wrong.
"""

from __future__ import annotations

from pathlib import Path

from moddiv import cli, engine

from conftest import require_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_detect_counts_one_search_per_bisection_and_removal(tmp_path, monkeypatch):
    karate = require_dataset("karate")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    # wrapped before the tracer installs, so its uninstall leaves this one
    # for monkeypatch to undo
    proven = []
    real = engine.bisect_community

    def bisect(g, sub, measure, table=None, connected=False):
        proven.append(connected)
        return real(g, sub, measure, table, connected)

    monkeypatch.setattr(engine, "bisect_community", bisect)

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
    assert metrics["graph.reach_calls"] == metrics["engine.removals"] + unproven
    assert sum(proven) > 0
    assert (metrics["engine.removals"], metrics["engine.bisections"]) == (66, 11)
