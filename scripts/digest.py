#!/usr/bin/env python3
"""sha256 digests of every `moddiv detect` artifact over a fixed set of inputs,
and of the `moddiv measures` output.

Usage:
    python3 scripts/digest.py [--seeds SEED ...] [--each]

The inputs are the bundled karate and lesmis graphs, then, for each seed
(1 and 7 by default; `--seeds` alone gives none), the instances of every
workload named in BENCHMARK.json, generated as `perfbench/run.py` generates
them.  Each input goes through `moddiv detect --no-timestamps` with
`--algo ccr` and `--algo ccr-ebr`, each with `--measure g3` and `g4`.

The output is one line per artifact, its sha256 over every run in order,
then a `measures.tsv` line: the sha256 of what `moddiv measures` prints on
karate and lesmis with `--measure g3`, `g4` and `betweenness`, in that
order.  Two checkouts that print the same lines wrote byte-identical
artifacts and score tables.  With `--each`, one line per input comes
first, naming the input and a short digest of each artifact over its four
runs, so a diff of two outputs names the inputs whose artifacts moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no cache files in the source tree

from moddiv.cli import main as moddiv_main  # noqa: E402
from run import ARTIFACTS, WORKLOADS, make_instances  # noqa: E402

RUNS = tuple((algo, measure) for algo in ("ccr", "ccr-ebr") for measure in ("g3", "g4"))
BUNDLED = tuple(ROOT / "data" / f"{name}.gml" for name in ("karate", "lesmis"))


def moddiv(*argv: str) -> str:
    """What `moddiv <argv>` prints on standard output; exits if it fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = moddiv_main(list(argv))
    if code != 0:
        raise SystemExit(f"moddiv {' '.join(argv)} exited with {code}")
    return out.getvalue()


def inputs(seeds: list[int], work: Path):
    """(name, GML path) of every input, in output order."""
    for path in BUNDLED:
        yield path.stem, path
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for seed in seeds:
        for workload in benchmark["workloads"]:
            name = workload["name"]
            instances = make_instances(WORKLOADS[name], seed, work)
            for i, instance in enumerate(instances):
                yield f"{name}/{seed}/{i}", instance.path


def artifact_digests(path: Path, out: Path) -> list[list[bytes]]:
    """The sha256 of each artifact of each run of one input."""
    digests = []
    for algo, measure in RUNS:
        moddiv("detect", "--input", str(path), "--algo", algo, "--measure", measure,
               "--out-dir", str(out), "--no-timestamps")
        digests.append([hashlib.sha256((out / a).read_bytes()).digest() for a in ARTIFACTS])
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 7])
    parser.add_argument("--each", action="store_true", help="also print one line per input")
    args = parser.parse_args(argv)
    totals = [hashlib.sha256() for _ in ARTIFACTS]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, path in inputs(args.seeds, work):
            each = [hashlib.sha256() for _ in ARTIFACTS]
            for run in artifact_digests(path, work / "out"):
                for digest, total, one in zip(run, totals, each):
                    total.update(digest)
                    one.update(digest)
            if args.each:
                print(name, *(f"{a}={h.hexdigest()[:16]}" for a, h in zip(ARTIFACTS, each)))
    for artifact, total in zip(ARTIFACTS, totals):
        print(f"{total.hexdigest()}  {artifact}")
    measures = hashlib.sha256()
    for path in BUNDLED:
        for measure in ("g3", "g4", "betweenness"):
            measures.update(moddiv("measures", "--input", str(path), "--measure", measure).encode())
    print(f"{measures.hexdigest()}  measures.tsv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
