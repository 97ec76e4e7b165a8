"""The benchmark's tracer still finds every engine hook it patches.

`perfbench/tracer.py` wraps functions of `moddiv.engine` and friends by
name; a refactor that renames or unbinds one makes `install()` raise, and
one that moves a call out of a hooked name makes a counter read wrong.
"""

from __future__ import annotations

from pathlib import Path

from moddiv import cli

from conftest import require_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_detect_counts_one_search_per_bisection_and_removal(tmp_path, monkeypatch):
    karate = require_dataset("karate")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

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
    assert metrics["graph.reach_calls"] == metrics["engine.removals"] + metrics["engine.bisections"]
    assert (metrics["engine.removals"], metrics["engine.bisections"]) == (66, 11)
