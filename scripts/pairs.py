#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, and whether a gain shows.

Usage:
    python3 scripts/pairs.py --parent DIR --change DIR --workload W
                             [--seed N] [--seconds S] [--pairs K]

Each pair runs `python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0` once in each checkout, one after the other: odd pairs run the
parent first, even pairs the change.  The last stdout line of each run is
its result, printed with the number of operations it ran.  A run that
exits nonzero, prints no result line or reports failed operations is
printed as such, and its pair is left out of the summary.

For every pair the script prints both sides' end-to-end metrics.  Then, per
metric, it prints each side's median and quartiles, the pairs the change
won, lost and tied (ties count for neither side), the relative change of
the median next to the metric's bound, and whether a gain is shown: the
change won at least nine tenths of the pairs, and its median is better than
the parent's by more than the parent's interquartile range.  The metrics,
their better direction and their bounds come from `BENCHMARK.json`.  The
script edits nothing in either checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_result(returncode: int, stdout: str) -> tuple[dict | None, str]:
    """A run's end-to-end values by metric name and its operation count,
    or None with the reason the run does not count."""
    if returncode != 0:
        return None, f"exit status {returncode}"
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = {name: m["value"] for name, m in result["metrics"].items()}
        failed, attempted = result["failed"], result["attempted"]
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return None, "no result line"
    if failed:
        return None, f"{failed} of {attempted} operations failed"
    return values, f"{attempted} operations"


def run_side(checkout: Path, workload: str, seed: int, seconds: float):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    return read_result(proc.returncode, proc.stdout)


def _median_quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def summarize(pairs, metrics) -> list[dict]:
    """Per metric of `metrics` (BENCHMARK.json's `end_to_end` entries), the
    summary of `pairs`, a list of (parent values, change values) in which a
    failed run's values are None."""
    counted = [(p, c) for p, c in pairs if p is not None and c is not None]
    rows = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        both = [(p[name], c[name]) for p, c in counted
                if p.get(name) is not None and c.get(name) is not None]
        row = {"name": name, "better": spec["better"], "bound": spec["bound"],
               "pairs": len(both), "won": 0, "lost": 0, "tied": 0,
               "parent": None, "change": None, "rel": None, "gain": False}
        rows.append(row)
        if not both:
            continue
        for p, c in both:
            if p == c:
                row["tied"] += 1
            elif (c < p) == lower:
                row["won"] += 1
            else:
                row["lost"] += 1
        row["parent"] = _median_quartiles([p for p, _ in both])
        row["change"] = _median_quartiles([c for _, c in both])
        (parent, q1, q3), change = row["parent"], row["change"][0]
        if parent:
            row["rel"] = (change - parent) / abs(parent)
        gain = parent - change if lower else change - parent
        row["gain"] = 10 * row["won"] >= 9 * len(both) and gain > q3 - q1
    return rows


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def format_summary(rows: list[dict]) -> list[str]:
    lines = [f"{'metric':<14} {'better':<7} {'parent median [q1, q3]':<28} "
             f"{'change median [q1, q3]':<28} {'won/lost/tied':<14} {'change':>8} "
             f"{'bound':>6}  gain shown"]
    for row in rows:
        sides = [
            "-" if row[side] is None
            else f"{_fmt(row[side][0])} [{_fmt(row[side][1])}, {_fmt(row[side][2])}]"
            for side in ("parent", "change")
        ]
        rel = "-" if row["rel"] is None else f"{100 * row['rel']:+.1f}%"
        tally = f"{row['won']}/{row['lost']}/{row['tied']}"
        lines.append(f"{row['name']:<14} {row['better']:<7} {sides[0]:<28} {sides[1]:<28} "
                     f"{tally:<14} {rel:>8} {100 * row['bound']:>5.0f}%  "
                     f"{'yes' if row['gain'] else 'no'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    names = [spec["name"] for spec in metrics]

    pairs = []
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        got = {}
        for side in order:
            got[side] = run_side(getattr(args, side), args.workload, args.seed, args.seconds)
        print(f"pair {i} ({order[0]} first)")
        for side in ("parent", "change"):
            values, note = got[side]
            text = note if values is None else " ".join(
                [f"{name}={_fmt(values.get(name))}" for name in names] + [f"({note})"])
            print(f"  {side:<6} {text}", flush=True)
        pairs.append((got["parent"][0], got["change"][0]))
    counted = sum(p is not None and c is not None for p, c in pairs)
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s: "
          f"{counted} of {len(pairs)} pairs counted")
    print("\n".join(format_summary(summarize(pairs, metrics))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
