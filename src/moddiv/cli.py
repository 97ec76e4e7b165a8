"""Command-line interface.

Subcommands:

* ``detect``   run a detection pipeline and write partition/dendrogram/trace
               artifacts, with a one-line summary on standard output;
* ``measures`` dump per-edge scores as TSV;
* ``verify``   run the self-verification suite and emit its JSON report;
* ``bench``    run the stock datasets and compare against published scores.

Exit codes: 0 success, 2 input error (an unreadable input, or an output
directory or artifact that cannot be written; `detect` and `bench` make the
directory before they run), 3 configuration error, 4 benchmark threshold
failure (bench with --strict), 1 verification failure, 5 internal error (an
unexpected exception; its traceback goes to standard error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

# `_RUNNERS` is `engine.RUNNERS`, the one pipeline table, which `bench` and
# `oracles` read too; perfbench's tracer wraps the pipelines by patching it
# in place under this name.
from .engine import RUNNERS as _RUNNERS, ConfigError, EngineConfig
from .graph import GraphLoadError, Subgraph, load_edge_list, load_gml
from .measures import BETWEENNESS, CLUSTERING_G3, CLUSTERING_G4, compute_scores
from .modularity import partition_to_json_text, partition_to_tsv

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_ACCEPTANCE = 4
EXIT_INTERNAL = 5

MEASURE_FLAGS = {
    "g3": CLUSTERING_G3,
    "g4": CLUSTERING_G4,
    "betweenness": BETWEENNESS,
}


class OutputError(Exception):
    """An output directory or artifact could not be written."""


@contextmanager
def _writing(out_dir: str):
    """Report an OSError raised while making or filling `out_dir` as an
    OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {out_dir}: {exc}") from exc


def _make_out_dir(out_dir: str) -> str:
    with _writing(out_dir):
        os.makedirs(out_dir or os.curdir, exist_ok=True)
    return out_dir


def _load_graph(path: str, fmt: str | None):
    if not os.path.isfile(path):
        raise GraphLoadError(f"input file not found: {path}")
    if fmt is None:
        fmt = "gml" if os.path.splitext(path)[1].lower() == ".gml" else "edgelist"
    if fmt == "gml":
        return load_gml(path)
    return load_edge_list(path)


def _timestamp() -> str:
    from datetime import datetime, timezone  # here, not at the top: about 1.3 ms of start-up

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(out_dir: str, name: str, text: str, stamp: str | None) -> None:
    """Write `text`, an object's `json.dumps(obj, indent=2)` text, as
    artifact `name`; a `stamp` goes in a `"generated_at"` line as its first key."""
    if stamp is not None:
        text = f'{{\n  "generated_at": {json.dumps(stamp)},{text[1:]}'
    _write(out_dir, name, text + "\n")


def _engine_config(args) -> EngineConfig:
    return EngineConfig(measure=MEASURE_FLAGS[args.measure],
                        refine_max_passes=args.refine_max_passes)


def cmd_detect(args) -> int:
    cfg = _engine_config(args)
    g = _load_graph(args.input, args.format)
    dropped = g.warnings
    if dropped.duplicates or dropped.self_loops:
        print(
            f"warning: input cleanup: {dropped.duplicates} duplicate edges,"
            f" {dropped.self_loops} self-loops dropped",
            file=sys.stderr,
        )
    if dropped.weights:
        print(f"warning: ignored {dropped.weights} edge weights", file=sys.stderr)
    if dropped.unknown_keys:
        print(f"warning: ignored GML keys: {', '.join(dropped.unknown_keys)}", file=sys.stderr)
    out_dir = _make_out_dir(args.out_dir)
    result = _RUNNERS[args.algo](g, cfg)
    stamp = None if args.no_timestamps else _timestamp()

    tsv = partition_to_tsv(result.best_partition)
    if stamp is not None:
        head, _, rest = tsv.partition("\n")
        tsv = f"{head}\n# generated_at\t{stamp}\n{rest}"
    with _writing(out_dir):
        _write(out_dir, "partition.tsv", tsv)
        _write_json(out_dir, "partition.json",
                    partition_to_json_text(result.best_partition), stamp)
        _write_json(out_dir, "dendrogram.json", result.dendrogram.to_json_text(), stamp)
        _write(out_dir, "dendrogram.newick", result.dendrogram.to_newick())
        _write(out_dir, "trace.jsonl", "".join(result.jsonl))

    print(f"Q={result.best_q:.4f} communities={result.best_partition.n_communities}")
    return EXIT_OK


def cmd_measures(args) -> int:
    g = _load_graph(args.input, args.format)
    table = compute_scores(MEASURE_FLAGS[args.measure], g, Subgraph(g, range(g.n)))
    sys.stdout.write(table.to_tsv(g))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import oracles  # here, not at the top: `detect` never needs the suite

    seed = oracles.DEFAULT_SEED if args.seed is None else args.seed
    reports = oracles.run_verification_suite(seed)
    obj = {
        "seed": seed,
        "passed": all(r.passed for r in reports),
        "checks": [r.to_obj() for r in reports],
    }
    print(json.dumps(obj, indent=2))
    return EXIT_OK if obj["passed"] else EXIT_VERIFY_FAILED


def cmd_bench(args) -> int:
    from . import bench  # here, not at the top: `detect` never needs the harness

    data_dir = args.data_dir or os.environ.get("MODDIV_DATA_DIR") or "data"
    algorithms = tuple(_RUNNERS) if args.algo is None else (args.algo,)
    cfg = _engine_config(args)
    out_dir = _make_out_dir(args.out_dir) if args.out_dir else None
    rows, warnings = bench.run_bench(data_dir, algorithms, cfg=cfg)
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    sys.stdout.write(bench.rows_to_tsv(rows))
    if out_dir is not None:
        with _writing(out_dir):
            _write(out_dir, "bench.tsv", bench.rows_to_tsv(rows))
            _write_json(out_dir, "bench.json",
                        json.dumps(bench.rows_to_json_obj(rows, warnings), indent=2),
                        None if args.no_timestamps else _timestamp())
    if args.strict:
        if not rows:
            print("error: no datasets were benchmarked", file=sys.stderr)
            return EXIT_ACCEPTANCE
        if any(r.passed is False for r in rows):
            return EXIT_ACCEPTANCE
    return EXIT_OK


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="path to the graph file")
    sub.add_argument(
        "--format",
        choices=("gml", "edgelist"),
        help="input format (default: by file extension)",
    )


def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--measure",
        choices=sorted(MEASURE_FLAGS),
        default="g3",
        help="edge measure for the divisive phase (default g3)",
    )
    sub.add_argument(
        "--refine-max-passes",
        type=int,
        default=EngineConfig().refine_max_passes,
        metavar="N",
        help="cap on refinement sweeps per split (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moddiv",
        description="Divisive community detection with modularity scoring.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_detect = subs.add_parser("detect", help="detect communities and write artifacts")
    _add_input_flags(p_detect)
    p_detect.add_argument(
        "--algo", choices=sorted(_RUNNERS), default="ccr", help="pipeline to run"
    )
    _add_engine_flags(p_detect)
    p_detect.add_argument("--out-dir", default=".", help="artifact directory")
    p_detect.add_argument(
        "--no-timestamps",
        action="store_true",
        help="omit timestamps so artifacts are byte-reproducible",
    )
    p_detect.set_defaults(func=cmd_detect)

    p_measures = subs.add_parser("measures", help="dump per-edge scores as TSV")
    _add_input_flags(p_measures)
    p_measures.add_argument(
        "--measure", choices=sorted(MEASURE_FLAGS), default="g3", help="score kind"
    )
    p_measures.set_defaults(func=cmd_measures)

    p_verify = subs.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument("--seed", type=int)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = subs.add_parser("bench", help="benchmark the stock datasets")
    p_bench.add_argument(
        "--data-dir",
        help="dataset directory (default: $MODDIV_DATA_DIR, then ./data)",
    )
    p_bench.add_argument(
        "--algo", choices=sorted(_RUNNERS), help="run only this pipeline"
    )
    _add_engine_flags(p_bench)
    p_bench.add_argument("--out-dir", help="also write bench.tsv / bench.json here")
    p_bench.add_argument(
        "--strict",
        action="store_true",
        help="exit 4 if any benchmarked score misses its threshold",
    )
    p_bench.add_argument("--no-timestamps", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphLoadError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        import traceback  # here, not at the top: about 1.4 ms of start-up

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
