"""Benchmark harness: run both pipelines on the stock datasets and compare
the modularity they reach against published reference scores.

The dataset manifest is static so comparisons never need network access.
Datasets missing from the data directory are tolerated with a warning;
rows come out ordered by dataset name, then algorithm.
"""

from __future__ import annotations

import os
import time

from .engine import CCR, CCR_EBR, RUNNERS, EngineConfig
from .graph import GraphLoadError, load_gml
from .record import Record


class DatasetSpec(Record):
    """A stock dataset: its file, its size, and per algorithm the reference
    modularity from the literature (`published`) and the minimum acceptable
    one (`floors`)."""

    __slots__ = ("name", "filename", "n", "m", "published", "floors")

    def __init__(self, name: str, filename: str, n: int, m: int,
                 published: dict, floors: dict):
        self.name = name
        self.filename = filename
        self.n = n
        self.m = m
        self.published = published
        self.floors = floors


# Reference scores are the published results for these standard benchmark
# networks; floors sit a couple of percent below them because tie handling
# differs between implementations.
DATASETS = (
    DatasetSpec(
        "adjnoun", "adjnoun.gml", 112, 425,
        {CCR: 0.309, CCR_EBR: 0.309}, {CCR_EBR: 0.29},
    ),
    DatasetSpec(
        "email", "email.gml", 1133, 5451,
        {CCR: 0.4531, CCR_EBR: 0.5703}, {CCR_EBR: 0.54},
    ),
    DatasetSpec(
        "football", "football.gml", 115, 613,
        {CCR: 0.6001, CCR_EBR: 0.6044}, {CCR_EBR: 0.59},
    ),
    DatasetSpec(
        "jazz", "jazz.gml", 198, 2742,
        {CCR: 0.445, CCR_EBR: 0.445}, {CCR_EBR: 0.43},
    ),
    DatasetSpec(
        "karate", "karate.gml", 34, 78,
        {CCR: 0.4197, CCR_EBR: 0.4197}, {CCR: 0.40, CCR_EBR: 0.40},
    ),
    DatasetSpec(
        "lesmis", "lesmis.gml", 77, 254,
        {CCR: 0.5428, CCR_EBR: 0.5600}, {CCR: 0.52, CCR_EBR: 0.55},
    ),
    DatasetSpec(
        "polbooks", "polbooks.gml", 105, 441,
        {CCR: 0.5269, CCR_EBR: 0.5269}, {CCR_EBR: 0.51},
    ),
)

DATASETS_BY_NAME = {spec.name: spec for spec in DATASETS}


class BenchRow(Record):
    """One dataset run by one algorithm; `passed` is None when the pair has
    no floor."""

    __slots__ = ("dataset", "n", "m", "algorithm", "q_obtained", "q_paper",
                 "wall_time_ms", "threshold", "passed")

    def __init__(self, dataset: str, n: int, m: int, algorithm: str, q_obtained: float,
                 q_paper: float | None, wall_time_ms: float, threshold: float | None,
                 passed: bool | None):
        self.dataset = dataset
        self.n = n
        self.m = m
        self.algorithm = algorithm
        self.q_obtained = q_obtained
        self.q_paper = q_paper
        self.wall_time_ms = wall_time_ms
        self.threshold = threshold
        self.passed = passed

    def to_obj(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def run_bench(
    data_dir,
    algorithms=tuple(RUNNERS),
    datasets=None,
    cfg: EngineConfig | None = None,
):
    """Run the requested algorithms over the dataset directory.

    Returns (rows, warnings).  Rows are ordered by dataset name then
    algorithm; datasets whose file is absent or unreadable produce a
    warning instead of a row.
    """
    cfg = cfg or EngineConfig()
    data_dir = os.fspath(data_dir)
    if not os.path.isdir(data_dir):
        raise FileNotFoundError(f"dataset directory not found: {data_dir}")
    for name in datasets or ():
        if name not in DATASETS_BY_NAME:
            raise ValueError(f"unknown dataset {name!r}")
    wanted = list(DATASETS) if datasets is None else [
        DATASETS_BY_NAME[name] for name in sorted(set(datasets))
    ]
    for algo in algorithms:
        if algo not in RUNNERS:
            raise ValueError(f"unknown algorithm {algo!r}")

    rows: list[BenchRow] = []
    warnings: list[str] = []
    for spec in sorted(wanted, key=lambda s: s.name):
        path = os.path.join(data_dir, spec.filename)
        if not os.path.isfile(path):
            warnings.append(f"{spec.name}: missing file {path}, skipped")
            continue
        try:
            g = load_gml(path)
        except GraphLoadError as exc:
            warnings.append(f"{spec.name}: failed to load ({exc}), skipped")
            continue
        if (g.n, g.m) != (spec.n, spec.m):
            warnings.append(
                f"{spec.name}: expected {spec.n} vertices / {spec.m} edges,"
                f" loaded {g.n} / {g.m}"
            )
        for algo in algorithms:
            start = time.perf_counter()
            result = RUNNERS[algo](g, cfg)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            floor = spec.floors.get(algo)
            rows.append(
                BenchRow(
                    dataset=spec.name,
                    n=g.n,
                    m=g.m,
                    algorithm=algo,
                    q_obtained=result.best_q,
                    q_paper=spec.published.get(algo),
                    wall_time_ms=elapsed_ms,
                    threshold=floor,
                    passed=None if floor is None else result.best_q >= floor - 1e-9,
                )
            )
    return rows, warnings


def rows_to_tsv(rows) -> str:
    lines = [
        "# dataset\tn\tm\talgorithm\tq_obtained\tq_paper\tthreshold\tstatus\twall_time_ms"
    ]
    for r in rows:
        if r.passed is None:
            status = "-"
        else:
            status = "ok" if r.passed else "LOW"
        q_paper = "-" if r.q_paper is None else f"{r.q_paper:.4f}"
        threshold = "-" if r.threshold is None else f"{r.threshold:.4f}"
        lines.append(
            f"{r.dataset}\t{r.n}\t{r.m}\t{r.algorithm}\t{r.q_obtained:.4f}"
            f"\t{q_paper}\t{threshold}\t{status}\t{r.wall_time_ms:.1f}"
        )
    return "\n".join(lines) + "\n"


def rows_to_json_obj(rows, warnings) -> dict:
    return {
        "rows": [r.to_obj() for r in rows],
        "warnings": list(warnings),
        "all_passed": all(r.passed for r in rows if r.passed is not None),
    }
