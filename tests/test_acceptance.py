"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (visible even under pytest capture) and
then asserts, so a red run still shows exactly which bar was missed and by
how much.  Dataset-bound checks skip with a visible SKIP line when the file
is not on disk; scripts/fetch_datasets.py downloads the missing ones.
"""

from __future__ import annotations

import math
import time

import pytest

from moddiv import (
    Graph,
    Partition,
    Subgraph,
    edge_clustering_g3,
    load_gml,
    modularity_q,
    run_ccr,
    run_ccr_ebr,
)
from moddiv.bench import DATASETS
from moddiv.cli import main as cli_main
from moddiv.oracles import (
    DEFAULT_SEED,
    check_betweenness_sum_law,
    check_betweenness_vs_naive,
    check_engine_vs_exhaustive,
    check_moveq_vs_recompute,
    check_q_fast_vs_pairwise,
    check_rescore_vs_full,
    exhaustive_best_partition,
)

from conftest import dataset_path

PUBLISHED_SIZES = {spec.name: (spec.n, spec.m) for spec in DATASETS}


@pytest.fixture
def announce(capsys):
    def _announce(num: int, status: str, detail: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {num}: {status} - {detail}", flush=True)

    return _announce


def _require(announce, num: int, names):
    missing = [n for n in names if not dataset_path(n).is_file()]
    if missing:
        announce(
            num,
            "SKIP",
            f"datasets not on disk: {', '.join(missing)}"
            " (run scripts/fetch_datasets.py)",
        )
        pytest.skip(f"missing datasets: {missing}")
    return [load_gml(dataset_path(n)) for n in names]


def test_01_published_dataset_sizes(announce):
    t0 = time.perf_counter()
    checked, missing, wrong = [], [], []
    for name, (n, m) in PUBLISHED_SIZES.items():
        path = dataset_path(name)
        if not path.is_file():
            missing.append(name)
            continue
        g = load_gml(path)
        if (g.n, g.m) == (n, m):
            checked.append(name)
        else:
            wrong.append(f"{name} got ({g.n}, {g.m}) want ({n}, {m})")
    elapsed = time.perf_counter() - t0
    ok = not wrong and elapsed < 1.0 and checked
    detail = (
        f"sizes exact for {len(checked)}/{len(PUBLISHED_SIZES)} datasets"
        f" ({', '.join(checked)}) in {elapsed:.2f}s"
    )
    if missing:
        detail += f"; not on disk: {', '.join(missing)}"
    if wrong:
        detail += f"; MISMATCH: {'; '.join(wrong)}"
    announce(1, "PASS" if ok else "FAIL", detail)
    assert not wrong, wrong
    assert checked, "no datasets available to check"
    assert elapsed < 1.0


def test_02_karate_quality(announce):
    (g,) = _require(announce, 2, ["karate"])
    t0 = time.perf_counter()
    q_ccr = run_ccr(g).best_q
    q_ebr = run_ccr_ebr(g).best_q
    elapsed = time.perf_counter() - t0
    ok = q_ccr >= 0.40 and q_ebr >= 0.40 and elapsed < 1.0
    target = lambda q: "on" if abs(q - 0.4197) <= 0.0005 else "off"
    announce(
        2,
        "PASS" if ok else "FAIL",
        f"karate CCR Q={q_ccr:.4f} and CCR-EBR Q={q_ebr:.4f}, floor 0.40,"
        f" target 0.4197+-0.0005 ({target(q_ccr)}/{target(q_ebr)} target),"
        f" {elapsed:.2f}s < 1s",
    )
    assert q_ccr >= 0.40
    assert q_ebr >= 0.40
    assert elapsed < 1.0


def test_03_lesmis_quality(announce):
    (g,) = _require(announce, 3, ["lesmis"])
    t0 = time.perf_counter()
    q_ccr = run_ccr(g).best_q
    q_ebr = run_ccr_ebr(g).best_q
    elapsed = time.perf_counter() - t0
    ok = q_ccr >= 0.52 and q_ebr >= 0.55 and q_ebr >= q_ccr and elapsed < 5.0
    announce(
        3,
        "PASS" if ok else "FAIL",
        f"lesmis CCR Q={q_ccr:.4f} >= 0.52, CCR-EBR Q={q_ebr:.4f} >= 0.55,"
        f" re-division never loses ({q_ebr:.4f} >= {q_ccr:.4f}), {elapsed:.2f}s < 5s",
    )
    assert q_ccr >= 0.52
    assert q_ebr >= 0.55
    assert q_ebr >= q_ccr
    assert elapsed < 5.0


def test_04_mid_size_dataset_floors(announce):
    floors = {"football": 0.59, "polbooks": 0.51, "adjnoun": 0.29, "jazz": 0.43}
    graphs = _require(announce, 4, list(floors))
    t0 = time.perf_counter()
    scores = {
        name: run_ccr_ebr(g).best_q for name, g in zip(floors, graphs)
    }
    elapsed = time.perf_counter() - t0
    misses = [n for n, q in scores.items() if q < floors[n]]
    ok = not misses and elapsed < 60.0
    got = ", ".join(f"{n} {q:.4f}>={floors[n]}" for n, q in scores.items())
    announce(4, "PASS" if ok else "FAIL", f"CCR-EBR {got}, {elapsed:.1f}s < 60s")
    assert not misses, {n: scores[n] for n in misses}
    assert elapsed < 60.0


def test_05_email_scale(announce):
    (g,) = _require(announce, 5, ["email"])
    t0 = time.perf_counter()
    run_ccr(g)
    t_ccr = time.perf_counter() - t0
    t0 = time.perf_counter()
    q_ebr = run_ccr_ebr(g).best_q
    t_ebr = time.perf_counter() - t0
    ok = t_ccr < 60.0 and t_ebr < 600.0 and q_ebr >= 0.54
    announce(
        5,
        "PASS" if ok else "FAIL",
        f"email CCR {t_ccr:.1f}s < 60s, CCR-EBR {t_ebr:.1f}s < 600s"
        f" with Q={q_ebr:.4f} >= 0.54",
    )
    assert t_ccr < 60.0
    assert t_ebr < 600.0
    assert q_ebr >= 0.54


def test_06_oracle_equivalences(announce):
    seed = DEFAULT_SEED
    reports = [
        check_q_fast_vs_pairwise(seed, cases=1000),
        check_moveq_vs_recompute(seed + 1, cases=10000),
        check_betweenness_vs_naive(seed + 2, cases=200),
        check_betweenness_sum_law(seed + 2, cases=200),
        check_rescore_vs_full(seed + 3, cases=50),
    ]
    pinned = {
        "q-fast-vs-pairwise": 1e-12,
        "moveq-vs-recompute": 1e-12,
        "betweenness-vs-naive": 1e-9,
        "betweenness-sum-law": 1e-9,
        "rescore-vs-full": 0.0,
    }
    bad = [r.name for r in reports if not r.passed or r.tolerance != pinned[r.name]]
    got = ", ".join(f"{r.name} max {r.max_abs_diff:.1e}<={r.tolerance:.0e}" for r in reports)
    announce(6, "PASS" if not bad else "FAIL", got)
    for r in reports:
        assert r.tolerance == pinned[r.name]
        assert r.passed, r.to_obj()


def test_07_analytic_fixed_points(announce, star5, path3):
    single_edge = Graph(2, [(0, 1)])
    q_whole = modularity_q(Partition(single_edge, [0, 0]))
    q_split = modularity_q(Partition(single_edge, [0, 1]))
    whole_graphs = [star5, path3, Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])]
    q_wholes = [modularity_q(Partition(g, [0] * g.n)) for g in whole_graphs]

    star = edge_clustering_g3(star5, Subgraph(star5, range(5)))
    path = edge_clustering_g3(path3, Subgraph(path3, range(3)))
    pendant_inf = all(math.isinf(s) for s in star.scores.values()) and all(
        math.isinf(s) for s in path.scores.values()
    )

    ok = all(q == 0.0 for q in q_wholes) and q_whole == 0.0 and q_split == -0.5 and pendant_inf
    announce(
        7,
        "PASS" if ok else "FAIL",
        f"Q(single community)={q_wholes + [q_whole]} exactly 0.0,"
        f" Q(split single edge)={q_split} exactly -0.5,"
        f" pendant edges all +inf: {pendant_inf}",
    )
    assert q_whole == 0.0
    assert all(q == 0.0 for q in q_wholes)
    assert q_split == -0.5
    assert pendant_inf


def test_08_engine_never_beats_exhaustive(announce, two_triangles, barbell):
    report = check_engine_vs_exhaustive(DEFAULT_SEED + 4, cases=100)
    _, opt_tri = exhaustive_best_partition(two_triangles)
    _, opt_bar = exhaustive_best_partition(barbell)
    fixture_ok = (
        abs(opt_tri - 0.5) < 1e-12
        and abs(opt_bar - 5.0 / 14.0) < 1e-12
        and all(
            abs(runner(g).best_q - opt) < 1e-12
            for g, opt in ((two_triangles, opt_tri), (barbell, opt_bar))
            for runner in (run_ccr, run_ccr_ebr)
        )
    )
    ok = report.passed and fixture_ok
    announce(
        8,
        "PASS" if ok else "FAIL",
        f"100 random graphs n<=8 never exceed the exhaustive optimum"
        f" (max excess {report.max_abs_diff:.1e}); fixtures hit it exactly:"
        f" two triangles {opt_tri:.4f}, barbell {opt_bar:.9f}",
    )
    assert report.passed, report.to_obj()
    assert fixture_ok


def test_09_detect_artifacts_deterministic(announce, tmp_path):
    path = dataset_path("karate")
    if not path.is_file():
        announce(9, "SKIP", "karate.gml not on disk")
        pytest.skip("karate.gml missing")
    names = (
        "partition.tsv",
        "partition.json",
        "dendrogram.json",
        "dendrogram.newick",
        "trace.jsonl",
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli_main(
            [
                "detect",
                "--input",
                str(path),
                "--algo",
                "ccr-ebr",
                "--out-dir",
                str(out),
                "--no-timestamps",
            ]
        )
        assert code == 0
        outs.append(out)
    differing = [
        n for n in names if (outs[0] / n).read_bytes() != (outs[1] / n).read_bytes()
    ]
    ok = not differing
    announce(
        9,
        "PASS" if ok else "FAIL",
        "two detect runs on karate wrote byte-identical partition, dendrogram"
        f" and trace artifacts ({len(names)} files)"
        + (f"; DIFFER: {differing}" if differing else ""),
    )
    assert not differing, differing
