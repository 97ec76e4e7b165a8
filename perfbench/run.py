"""moddiv benchmark: seeded workloads through the real `moddiv detect` path.

    python3 perfbench/run.py --workload planted-ccr --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports moddiv from `src/`
and reads the bundled `data/karate.gml` and `data/lesmis.gml`.

One operation is one in-process `moddiv.cli.main(["detect", ...])` on a
generated GML file: load, run the pipeline, write the five artifacts.
Operations run one after another in this one process, round-robin over the
workload's instances, until `--seconds` have passed.  After every operation
the artifacts are checked against the benchmark's own copy of the graph
(see `check.py`); a raise, a nonzero exit or a failed check counts as a
failed operation.

With `--trace 0` the run reports the end-to-end metrics.  Each operation is
paired with the fixed reference workload of `reference.py`, timed just
before and just after it; `run_rel.*` are percentiles of the per-operation
ratio of its time to the mean of the two reference times, `run_s.*` of the
wall time alone.  `setup_s` comes from fresh interpreters that import
moddiv and parse the first instance, then time the reference; it is the
median ratio of the two times, in seconds of a reference that takes
REF_NOMINAL_S.
With `--trace 1` it alternates plain and traced operations (`tracer.py`)
and reports the median per-layer metrics of the traced ones, plus the
tracing overhead: traced minus plain median operation time.

Standard output ends with one JSON line: `correct`, `attempted`, `failed`
and `metrics`.  The lines before it are a JSON report with every metric,
the failures by type, and the sha256 of each artifact per instance.
Exit status is nonzero, with no result line, when the checkout has no
moddiv sources or the karate/lesmis pre-flight does not reproduce the
published modularity.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import gen
from reference import reference_seconds
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = (
    "partition.tsv",
    "partition.json",
    "dendrogram.json",
    "dendrogram.newick",
    "trace.jsonl",
)
Q_TOLERANCE = 1e-12
TAIL_BEYOND = 10
SETUP_RUNS = 11
SETUP_REFS = 3  # reference timings per set-up probe; the median is used
# A fixed scale that turns set-up time over reference time into seconds:
# `setup_s` is the set-up time of a machine on which the reference takes
# exactly this long.  On the machine of `baseline.json` the reference took
# 34-65 ms as the shared host's speed varied.
REF_NOMINAL_S = 0.040
# The end-to-end metrics of the result line.  The report above it also has
# the wall times `run_s.*`, which swing with the host's speed (see
# `reference.py`), and `fail_ratio`, which is 0 on every listed workload and
# is the result line's `failed` over `attempted`.
END_TO_END = ("setup_s", "run_rel.p50", "run_rel.tail", "q", "nmi", "peak_rss_mb")
# Per-layer metrics kept off the result line of a traced run: Brandes time is
# exactly 0 on every run of the workloads that never call it, which reads as
# a broken timer.  Its run and source counts stay on the result line.
REPORT_ONLY = ("measures.brandes_s",)

# Modularity printed in the README for the bundled datasets; the pre-flight
# must reproduce every value to four decimals before any workload runs.
PREFLIGHT = (
    ("karate", "ccr", 0.4188),
    ("karate", "ccr-ebr", 0.4198),
    ("lesmis", "ccr", 0.5428),
    ("lesmis", "ccr-ebr", 0.5596),
)


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str
    measure: str
    instances: int  # operation time varies ~11% between instances; many average it out
    make: Callable[[random.Random], tuple[int, list[tuple[int, int]], list[int]]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted-ccr", "ccr", "g3", 96,
            lambda rng: gen.planted_partition(rng, 160, 8, 12.0, 2.0),
        ),
        Workload(
            "sparse-ebr", "ccr-ebr", "g4", 64,
            lambda rng: gen.cycle_blocks(rng, 240, 6, 3, 12),
        ),
        Workload(
            "cliques-ring-200", "ccr", "g3", 1,
            lambda rng: gen.ring_of_cliques(200, 4),
        ),
        # Not in BENCHMARK.json: every operation fails with RecursionError in
        # the dendrogram export, and listed workloads must run without failures.
        Workload(
            "cliques-ring", "ccr", "g3", 1,
            lambda rng: gen.ring_of_cliques(1200, 4),
        ),
    )
}


@dataclass
class Instance:
    path: Path
    n: int
    edges: list[tuple[int, int]]
    truth: list[int]
    vertex_of: dict[str, int]
    first: dict | None = None  # `inspect` record of the first operation


def make_instances(w: Workload, seed: int, work: Path) -> list[Instance]:
    """Generate, label and write the workload's instances for `seed`."""
    out = []
    for i in range(w.instances):
        rng = random.Random(f"{w.name}/{seed}/{i}")
        n, edges, truth = w.make(rng)
        order = list(range(n))
        rng.shuffle(order)
        labels = [str(x) for x in order]
        path = work / f"{w.name}-{i}.gml"
        gen.write_gml(path, labels, edges)
        out.append(Instance(path, n, edges, truth, {s: v for v, s in enumerate(labels)}))
    return out


def detect(cli, argv: list[str]) -> tuple[float, int | None, str, str | None]:
    """One operation: (seconds, exit code, stdout, exception type or None)."""
    buf = io.StringIO()
    code = None
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # an operation that raises is a failed operation
        error = type(exc).__name__
    return time.perf_counter() - start, code, buf.getvalue(), error


def clear(out_dir: Path) -> None:
    for name in ARTIFACTS:
        (out_dir / name).unlink(missing_ok=True)


def inspect(inst: Instance, out_dir: Path, stdout: str) -> dict:
    """Check the artifacts of one operation against the input.

    Returns the partition's q, community count and NMI against the truth
    (None when `partition.tsv`/`partition.json` were not written), the
    sha256 and size of every artifact written, the Newick nesting depth,
    and the reason the check failed, if it did.
    """
    rec: dict = {"q": None, "communities": None, "nmi": None, "problem": None}
    written = [name for name in ARTIFACTS if (out_dir / name).is_file()]
    rec["sha256"] = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in written
    }
    rec["bytes"] = sum((out_dir / name).stat().st_size for name in written)
    newick = out_dir / "dendrogram.newick"
    rec["newick_depth"] = check.newick_depth(newick.read_text()) if newick.is_file() else None
    if "partition.tsv" not in written or "partition.json" not in written:
        rec["problem"] = "partition artifacts missing"
        return rec
    try:
        summary = json.loads((out_dir / "partition.json").read_text())
        assignment = check.read_partition_tsv(
            (out_dir / "partition.tsv").read_text(), inst.vertex_of
        )
        q = check.modularity(inst.edges, assignment)
        if abs(q - summary["q"]) > Q_TOLERANCE:
            raise check.CheckFailed(f"Q {summary['q']!r} but recomputed {q!r}")
        k = len(set(assignment))
        if summary["n_communities"] != k:
            raise check.CheckFailed(f"{summary['n_communities']} communities reported, {k} found")
        bad = check.disconnected_community(inst.n, inst.edges, assignment)
        if bad is not None:
            raise check.CheckFailed(f"community {bad} is not connected")
    except (check.CheckFailed, KeyError, ValueError) as exc:
        rec["problem"] = f"{type(exc).__name__}: {exc}"
        return rec
    rec.update(q=q, communities=k, nmi=check.nmi(assignment, inst.truth))
    if stdout and stdout.strip() != f"Q={summary['q']:.4f} communities={k}":
        rec["problem"] = f"summary line {stdout.strip()!r} disagrees with partition.json"
    return rec


def preflight(cli, work: Path) -> list[str]:
    """Run the bundled datasets through both pipelines; list any mismatch."""
    problems = []
    for dataset, algo, expected in PREFLIGHT:
        out = work / f"preflight-{dataset}-{algo}"
        _, code, _, error = detect(cli, [
            "detect", "--input", str(ROOT / "data" / f"{dataset}.gml"), "--algo", algo,
            "--out-dir", str(out), "--no-timestamps",
        ])
        if error or code != 0:
            problems.append(f"{dataset} {algo}: exit {code}, {error}")
            continue
        q = json.loads((out / "partition.json").read_text())["q"]
        if round(q, 4) != expected:
            problems.append(f"{dataset} {algo}: Q={q:.4f}, expected {expected:.4f}")
    return problems


SETUP_PROBE = """
import statistics, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import moddiv
g = moddiv.load_gml(sys.argv[2])
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[3])
from reference import reference_seconds
ref = statistics.median(reference_seconds() for _ in range(int(sys.argv[4])))
print(seconds, ref, g.n, g.m)
"""


def setup_seconds(inst: Instance) -> list[tuple[float, float]]:
    """Import moddiv and parse the input in fresh interpreters, each then
    timing the reference; (set-up seconds, reference seconds) per
    interpreter.  The first run only warms the bytecode cache and is not
    reported."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(ROOT / "src"), str(inst.path),
             str(Path(__file__).resolve().parent), str(SETUP_REFS)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, ref, n, m = proc.stdout.split()
        if (int(n), int(m)) != (inst.n, len(inst.edges)):
            raise RuntimeError(f"setup probe parsed n={n} m={m}")
        times.append((float(seconds), float(ref)))
    return times[1:]


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and
    that percentile; the maximum (percentile 100) when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(w: Workload, instances: list[Instance], seconds: float, traced: bool,
            cli, work: Path, tracer: Tracer):
    """Operations until `seconds` have passed; returns per-operation rows.

    Instances the deadline left out then run once each, untimed, so that
    q, nmi and the artifact hashes cover every instance whatever the
    host's speed."""
    out_dir = work / "out"
    out_dir.mkdir()

    def operate(inst: Instance, with_trace: bool, timed: bool) -> dict:
        clear(out_dir)
        ref = reference_seconds() if timed else None
        argv = ["detect", "--input", str(inst.path), "--algo", w.algo, "--measure",
                w.measure, "--out-dir", str(out_dir), "--no-timestamps"]
        if with_trace:
            mark = tracer.mark()
            try:
                tracer.install()
                elapsed, code, stdout, error = detect(cli, argv)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics(mark)
        else:
            elapsed, code, stdout, error = detect(cli, argv)
            layers = None
        rec = inspect(inst, out_dir, stdout if code == 0 and not error else "")
        if error:
            failure = error
        elif code != 0:
            failure = f"exit {code}"
        elif rec["problem"]:
            failure = rec["problem"]
        elif inst.first is not None and rec["sha256"] != inst.first["sha256"]:
            failure = "artifacts differ from an earlier run on the same input"
        else:
            failure = None
        if inst.first is None:
            inst.first = rec
        if layers is not None:
            layers["cli.artifact_bytes"] = rec["bytes"]
        return {"seconds": elapsed, "ref": ref, "traced": with_trace, "timed": timed,
                "failure": failure, "rec": rec, "layers": layers}

    rows = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 1 + traced or time.perf_counter() < deadline:
        inst = instances[(i // 2 if traced else i) % len(instances)]
        rows.append(operate(inst, traced and i % 2 == 1, True))
        i += 1
    # Each operation's reference time is the mean of the timings just before
    # and just after it: bracketing halves the spread of `run_rel.tail`.
    after = [r["ref"] for r in rows[1:]] + [reference_seconds()]
    for row, ref in zip(rows, after):
        row["ref"] = (row["ref"] + ref) / 2
    rows += [operate(inst, False, False) for inst in instances if inst.first is None]
    return rows


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import moddiv.cli as cli
    except ImportError as exc:
        print(f"error: cannot import moddiv from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(cli.__file__).resolve().parents:
        print(f"error: moddiv was imported from {cli.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        problems = preflight(cli, work)
        if problems:
            for line in problems:
                print(f"error: pre-flight: {line}", file=sys.stderr)
            return 1
        instances = make_instances(w, args.seed, work)
        setup = [] if args.trace else setup_seconds(instances[0])
        tracer = Tracer()
        rows = measure(w, instances, args.seconds, bool(args.trace), cli, work, tracer)
        if args.trace:
            spans = ROOT / ".perfbench_out" / f"spans-{w.name}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            tracer.dump(spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in rows if r["failure"]]
    errors: dict[str, int] = {}
    for r in failed:
        errors[r["failure"]] = errors.get(r["failure"], 0) + 1
    plain = [r for r in rows if r["timed"] and not r["traced"]]
    run_p50 = statistics.median(r["seconds"] for r in plain)
    run_tail, pct = tail([r["seconds"] for r in plain])
    rel_tail, _ = tail([r["seconds"] / r["ref"] for r in plain])
    report = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation()},
        "attempted": len(rows), "failed": len(failed), "failures": errors,
        "instances": [
            {"input": inst.path.name, "n": inst.n, "m": len(inst.edges),
             **{key: inst.first[key] for key in ("q", "communities", "newick_depth", "sha256")}}
            for inst in instances
        ],
    }
    if args.trace:
        traced = [r for r in rows if r["traced"]]
        metrics = {name: metric(statistics.median(r["layers"][name] for r in traced),
                                layer_unit(name))
                   for name in traced[0]["layers"]}
        traced_p50 = statistics.median(r["seconds"] for r in traced)
        metrics["trace.run_s.p50"] = metric(traced_p50, "s", samples=len(traced))
        metrics["trace.overhead_s"] = metric(traced_p50 - run_p50, "s")
    else:
        firsts = [inst.first for inst in instances]
        metrics = {
            "setup_s": metric(
                REF_NOMINAL_S * statistics.median(s / ref for s, ref in setup), "s",
                samples=len(setup)),
            "setup_wall_s": metric(statistics.median(s for s, _ in setup), "s"),
            "setup_ref_s": metric(statistics.median(ref for _, ref in setup), "s"),
            "run_s.p50": metric(run_p50, "s", samples=len(plain)),
            "run_s.tail": metric(run_tail, "s", percentile=pct, samples=len(plain)),
            "ref_s": metric(statistics.median(r["ref"] for r in plain), "s"),
            "run_rel.p50": metric(statistics.median(r["seconds"] / r["ref"] for r in plain),
                                  "ratio", samples=len(plain)),
            "run_rel.tail": metric(rel_tail, "ratio", percentile=pct, samples=len(plain)),
            "q": metric(median_or_none(rec["q"] for rec in firsts), "Q",
                        instances=len(firsts)),
            "nmi": metric(median_or_none(rec["nmi"] for rec in firsts), "nmi"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "fail_ratio": metric(len(failed) / len(rows), "ratio", base=len(rows)),
        }
    report["metrics"] = metrics
    print(json.dumps(report, indent=1))
    on_line = [name for name in metrics if name not in REPORT_ONLY] if args.trace else END_TO_END
    final = {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
             for name in on_line}
    print(json.dumps({"correct": not failed, "attempted": len(rows), "failed": len(failed),
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
