"""`scripts/pairs.py`'s reading and summary of benchmark runs, on hand-made
results; no benchmark runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "run_rel.p50", "better": "lower", "bound": 0.15},
    {"name": "q", "better": "higher", "bound": 0.02},
]


def _stdout(failed=0, **values) -> str:
    metrics = {name: {"value": v, "unit": "x"} for name, v in values.items()}
    return "{\n \"report\": 1\n}\n" + json.dumps(
        {"correct": not failed, "attempted": 40, "failed": failed, "metrics": metrics}) + "\n"


def test_read_result_takes_the_last_line_and_refuses_failed_runs():
    assert pairs.read_result(0, _stdout(q=0.5)) == ({"q": 0.5}, "40 operations")
    assert pairs.read_result(1, _stdout(q=0.5)) == (None, "exit status 1")
    assert pairs.read_result(0, "") == (None, "no result line")
    assert pairs.read_result(0, "{\n \"report\": 1\n}\n") == (None, "no result line")
    assert pairs.read_result(0, _stdout(failed=2, q=0.5)) == (None, "2 of 40 operations failed")


def _pair(parent_rel, change_rel, parent_q=0.7, change_q=0.7):
    return ({"run_rel.p50": parent_rel, "q": parent_q},
            {"run_rel.p50": change_rel, "q": change_q})


def test_a_lower_is_better_gain_shows_and_a_tie_counts_for_neither_side():
    runs = [_pair(0.80 + 0.01 * i, 0.72 + 0.01 * i) for i in range(9)]
    runs.append(_pair(0.75, 0.75))  # a tie
    rel, q = pairs.summarize(runs, METRICS)
    assert (rel["won"], rel["lost"], rel["tied"], rel["pairs"]) == (9, 0, 1, 10)
    assert rel["gain"]  # 9 of 10 won, and the medians are 0.08 apart
    assert rel["parent"][0] == pytest.approx(0.835)
    assert rel["change"][0] == pytest.approx(0.755)
    assert rel["parent"][2] - rel["parent"][1] < 0.08
    assert rel["rel"] == pytest.approx((0.755 - 0.835) / 0.835)
    # every q ties: nothing won, no gain
    assert (q["won"], q["lost"], q["tied"], q["gain"], q["rel"]) == (0, 0, 10, False, 0.0)


def test_a_higher_is_better_metric_wins_when_it_rises():
    runs = [_pair(0.8, 0.8, 0.70 + 0.001 * i, 0.75 + 0.001 * i) for i in range(10)]
    _, q = pairs.summarize(runs, METRICS)
    assert (q["won"], q["lost"], q["gain"]) == (10, 0, True)
    worse = [(c, p) for p, c in runs]
    _, q = pairs.summarize(worse, METRICS)
    assert (q["won"], q["lost"], q["gain"]) == (0, 10, False)


def test_no_gain_when_wins_fall_short_or_the_medians_sit_within_the_spread():
    # 8 of 10 won is short of nine tenths, however far apart the medians are
    runs = [_pair(1.0, 0.5) for _ in range(8)] + [_pair(0.5, 1.0) for _ in range(2)]
    rel, _ = pairs.summarize(runs, METRICS)
    assert (rel["won"], rel["lost"], rel["gain"]) == (8, 2, False)
    # every pair won, by less than the parent's interquartile range
    runs = [_pair(0.70 + 0.05 * i, 0.69 + 0.05 * i) for i in range(10)]
    rel, _ = pairs.summarize(runs, METRICS)
    assert (rel["won"], rel["gain"]) == (10, False)


def test_a_failed_run_leaves_its_pair_out():
    runs = [_pair(0.8, 0.7) for _ in range(9)]
    runs.append((None, {"run_rel.p50": 9.9, "q": 0.0}))
    rel, q = pairs.summarize(runs, METRICS)
    assert (rel["pairs"], rel["won"], rel["gain"]) == (9, 9, True)
    assert rel["change"][0] == pytest.approx(0.7)
    assert q["pairs"] == 9
    lines = pairs.format_summary([rel, q])
    assert lines[1].split()[:2] == ["run_rel.p50", "lower"]
    assert lines[1].endswith("yes") and lines[2].endswith("no")


def test_a_metric_with_no_counted_pairs_prints_dashes():
    rows = pairs.summarize([(None, None)], METRICS)
    assert all(row["pairs"] == 0 and row["parent"] is None for row in rows)
    assert pairs.format_summary(rows)[1].split()[2] == "-"
