from __future__ import annotations

import shutil

import pytest

from moddiv import Graph, write_gml
from moddiv.bench import BenchRow, run_bench, rows_to_json_obj, rows_to_tsv

from conftest import dataset_path


@pytest.fixture
def karate_dir(tmp_path):
    src = dataset_path("karate")
    if not src.is_file():
        pytest.skip("karate.gml not bundled")
    d = tmp_path / "data"
    d.mkdir()
    shutil.copy(src, d / "karate.gml")
    return d


def test_run_bench_single_dataset(karate_dir):
    rows, warnings = run_bench(karate_dir, algorithms=("ccr",))
    assert [r.dataset for r in rows] == ["karate"]
    row = rows[0]
    assert (row.n, row.m) == (34, 78)
    assert row.algorithm == "ccr"
    assert row.q_paper == 0.4197
    assert row.threshold == 0.40
    assert row.passed is True
    assert row.wall_time_ms > 0
    missing = {w.split(":")[0] for w in warnings}
    assert missing == {"adjnoun", "email", "football", "jazz", "lesmis", "polbooks"}


def test_run_bench_orders_rows_by_dataset_then_algorithm(karate_dir):
    lesmis = dataset_path("lesmis")
    if not lesmis.is_file():
        pytest.skip("lesmis.gml not bundled")
    shutil.copy(lesmis, karate_dir / "lesmis.gml")
    rows, warnings = run_bench(karate_dir)
    assert [(r.dataset, r.algorithm) for r in rows] == [
        ("karate", "ccr"), ("karate", "ccr-ebr"), ("lesmis", "ccr"), ("lesmis", "ccr-ebr")]
    missing = {w.split(":")[0] for w in warnings}
    assert missing == {"adjnoun", "email", "football", "jazz", "polbooks"}


def test_run_bench_warns_on_size_mismatch(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    write_gml(Graph(3, [(0, 1), (1, 2)]), d / "karate.gml")
    rows, warnings = run_bench(d, algorithms=("ccr",))
    assert len(rows) == 1  # still benchmarked, just flagged
    assert rows[0].n == 3
    assert any("expected 34 vertices / 78 edges" in w for w in warnings)


def test_run_bench_skips_unreadable_files(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    (d / "karate.gml").write_text("graph [ node [ id", encoding="utf-8")
    rows, warnings = run_bench(d)
    assert rows == []
    assert any("failed to load" in w for w in warnings)


def test_run_bench_input_validation(tmp_path):
    with pytest.raises(FileNotFoundError):
        run_bench(tmp_path / "absent")
    d = tmp_path / "data"
    d.mkdir()
    with pytest.raises(ValueError):
        run_bench(d, algorithms=("louvain",))


def _row(**kw) -> BenchRow:
    base = dict(
        dataset="demo", n=5, m=4, algorithm="ccr", q_obtained=0.41,
        q_paper=None, wall_time_ms=1.5, threshold=None, passed=None,
    )
    base.update(kw)
    return BenchRow(**base)


def test_tsv_marks_rows_without_floors_as_dash():
    text = rows_to_tsv([_row(), _row(threshold=0.5, passed=False)])
    lines = text.strip().splitlines()
    assert lines[1].split("\t")[5:8] == ["-", "-", "-"]
    assert lines[2].split("\t")[7] == "LOW"


def test_json_report_fails_when_any_floor_is_missed():
    rows = [_row(passed=True, threshold=0.4), _row(passed=False, threshold=0.5)]
    obj = rows_to_json_obj(rows, ["note"])
    assert obj["all_passed"] is False
    assert obj["warnings"] == ["note"]
    assert rows_to_json_obj([_row()], [])["all_passed"] is True
