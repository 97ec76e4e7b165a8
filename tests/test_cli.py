from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from moddiv import BETWEENNESS, CLUSTERING_G3, CLUSTERING_G4, bench, cli, oracles
from moddiv.cli import main
from moddiv.modularity import Partition

from conftest import dataset_path, require_dataset

ARTIFACTS = (
    "partition.tsv",
    "partition.json",
    "dendrogram.json",
    "dendrogram.newick",
    "trace.jsonl",
)

BARBELL_EDGES = "a b\nb c\nc a\nc d\nd e\ne f\nf d\n"


@pytest.fixture
def barbell_file(tmp_path) -> Path:
    p = tmp_path / "barbell.txt"
    p.write_text(BARBELL_EDGES, encoding="utf-8")
    return p


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


# -- detect ------------------------------------------------------------------


def test_detect_writes_artifacts_and_summary(tmp_path, barbell_file, capsys):
    out = tmp_path / "out"
    code = run_cli("detect", "--input", barbell_file, "--out-dir", out)
    assert code == 0
    assert capsys.readouterr().out.strip() == "Q=0.3571 communities=2"
    for name in ARTIFACTS:
        assert (out / name).is_file(), name
    obj = json.loads((out / "partition.json").read_text())
    assert obj["n_communities"] == 2
    tsv = (out / "partition.tsv").read_text()
    assert tsv.startswith("# vertex\tcommunity")
    assert len(tsv.strip().splitlines()) == 1 + 1 + 6  # header, stamp, rows


def test_detect_artifacts_are_byte_identical_without_timestamps(
    tmp_path, barbell_file
):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert (
            run_cli(
                "detect",
                "--input",
                barbell_file,
                "--algo",
                "ccr-ebr",
                "--out-dir",
                out,
                "--no-timestamps",
            )
            == 0
        )
        outs.append(out)
    for name in ARTIFACTS:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, name
        assert b"generated_at" not in a, name


# sha256 of ARTIFACTS, in that order, written by `detect --no-timestamps`.
# They pin every tie-break of the engine: a change that alters one of these
# files has to say why and update the hash.  "ring-200" is the ring of 200
# K4 cliques of `perfbench/gen.py`, labelled `str(v)`: 249 dendrogram nodes
# and 606 refinement moves under ccr.
PINNED_SHA256 = {
    ("karate", "ccr", "g3"): (
        "7d385b840edcf7faf942e790cf5fa46a4aeff694c3370e300f645175ee704065",
        "8a73bbebbd7c489be883f4b7aaf8cfaad0789cee853ab684bb14c3d9861b7541",
        "bb7e85152b54f69c1492ef9e4c260a326f6c8d569792d4e6da677fc2880a5092",
        "f5e129976cc095820641f65421dabd1276136de53f1dd296571e44319e295e1a",
        "e00fbfe5b87ddd23f095af3b2258f7cca6215b5515f2fc27c7d0d8cf8c982c66",
    ),
    ("karate", "ccr", "g4"): (
        "7d385b840edcf7faf942e790cf5fa46a4aeff694c3370e300f645175ee704065",
        "8a73bbebbd7c489be883f4b7aaf8cfaad0789cee853ab684bb14c3d9861b7541",
        "0a2a4cca3b8f77020e2ec78e465e31cc9492f6b2de98898928abed74696d5589",
        "f5e129976cc095820641f65421dabd1276136de53f1dd296571e44319e295e1a",
        "690e9538c59ab5fd87e37cd34438a8cf84ac50ecef49682c4f5b4667d1b1d9f6",
    ),
    ("karate", "ccr-ebr", "g3"): (
        "c8e2ef882a1eb0408b15000ec2d8cc23cd770f8219abb9701c021ec8dde1b7dc",
        "cac09c8fe68aeebd1d3d509e2039ee00f23cb9689c49485e6c2524ac1c3210a7",
        "e075b149745d1dca57b40093f1c566f26a1f5aa81b1a469f1c637f62cbc22d89",
        "deb8967e070ef608cd157e1b05d7b8293a9cd60571d0d5de60aa7977fe72983b",
        "1c6ef6a9ddb6184061e82e2b531c02c81033533180727b48b504db17dfcabaf7",
    ),
    ("karate", "ccr-ebr", "g4"): (
        "c8e2ef882a1eb0408b15000ec2d8cc23cd770f8219abb9701c021ec8dde1b7dc",
        "cac09c8fe68aeebd1d3d509e2039ee00f23cb9689c49485e6c2524ac1c3210a7",
        "eb03f5dadbef8ed22dacfc1ff6622aea19e410c13afabe48cf0f933ed16248de",
        "deb8967e070ef608cd157e1b05d7b8293a9cd60571d0d5de60aa7977fe72983b",
        "e83f7e0a51f476e84b052a5a38067a168d9e6efa0170ffb7a5833bca71b64e72",
    ),
    ("lesmis", "ccr", "g3"): (
        "82d2d0a548300b4a4d7c720ca76f8e04b668b6adce8a4424a5d22f3cb4737db0",
        "0e48275a3b2bff45a5764f82c01c746f5abf373f516c4fbc70ec1638fbcc447d",
        "731bab9fa4218df11588bd533f1be04e59041f5b19e5e0b77f0b0618e804e854",
        "5536f7ccd895792bf3d85252bebbc9fca9e17f3188ccbcab952b9ba7c1e9cbc1",
        "92a5ae5a7f9f1e4e31cacddc8b9df7772c7ca367f8cbf446bddfd4b293663e2b",
    ),
    ("lesmis", "ccr", "g4"): (
        "271cbcc7428fa58b0a324b0461224096369dca1ea6208b201c66ee4726ee748c",
        "7ac9fb9b750f7a68abbfcdc1446506aa7b7d1d9a639d755ffdc391263b57ac87",
        "9f7b537638de2cca988ab6495e6a9757dce6ae20abc45b411ae4006031f0a858",
        "e185340be5570607a4a724f9d52d5f4ca32f044edaf6b2cc766b8be56e2c0232",
        "8b5519513fd69e3fe9495b25468a76b774e9bea2638dc97b9cac585d513a5f9b",
    ),
    ("lesmis", "ccr-ebr", "g3"): (
        "36c1da607125c3fd639ab33e9659f64bc3aa8437f7e0c37ff5a37b30674f4178",
        "24ed6e98505e42a0634f983c0c5c1653733c60a86b5fd55af393667875bb034c",
        "e77b84fc2e17e309195b160d68d9914aaa0089c721574cc760797f5a4bbb3796",
        "35eb5707432e86e508ceebfa7a025b8681e3782af8fcb928c3b5daceb2553dd3",
        "bd94db368f4dafcddfa878b3e868158bdf3a0634de04604476e311ccb3edd90a",
    ),
    ("lesmis", "ccr-ebr", "g4"): (
        "9d7ee2085fbfc2413b68b199eb977d57b5e294a701f26911a095ac1dfc471409",
        "15aa64fab1fecc72a94f72e1d7d8f78fa6857bb122d4fdbbd9671bff2ca5e16c",
        "14ce72bf2199c697dc90234dfa9ced1b9595f5f03b6060c08ed6d3e32595dc0d",
        "86dac5ba9eb7a867d85a4f10dfe05b48a03f99c22bc9ee5a2b7d693401ea0ea0",
        "211ced8aa97423fad71f4758abbabc33cb4ffae3ab3d8c0e71b863fed4d83610",
    ),
    ("ring-200", "ccr", "g3"): (
        "2808959b225c16d485d71795a6bf4bb6a8b9a755e96b188a09a0aed1919bd69d",
        "79b2304ac550f7d0162953ad4cf3d29d2e1e0a177b57b73bc25e9e84dee7aa3b",
        "862e2a94c415a80987c2ceebaffc560e7323a294aeb4ef731f63b25655af0543",
        "fa421db7bc92959966884cec70eeafe52ff7fcf659b2ece14cef49527e935ada",
        "14d17a40d6023ed76c15eb192815357ab86ee553755c271c88eefcd77604bfdb",
    ),
    ("ring-200", "ccr", "g4"): (
        "2808959b225c16d485d71795a6bf4bb6a8b9a755e96b188a09a0aed1919bd69d",
        "79b2304ac550f7d0162953ad4cf3d29d2e1e0a177b57b73bc25e9e84dee7aa3b",
        "862e2a94c415a80987c2ceebaffc560e7323a294aeb4ef731f63b25655af0543",
        "fa421db7bc92959966884cec70eeafe52ff7fcf659b2ece14cef49527e935ada",
        "7411ca1fc9aa853469ae7a57cdaaf07b830e5cf9f710ff70a8785075555511e0",
    ),
    ("ring-200", "ccr-ebr", "g3"): (
        "2adea9ea5b2d3e39fd2fd3abf7225d2181dce2a731992a2312869463df424aa5",
        "58c4c17e49f7df170a93f8b648e367e8a56b08241dd78669944b0fbe218c4914",
        "498590c656a4f7fc474e969a491e25a25e74580e60fed2e37e6ef9da353fe51e",
        "f6860ba45f92b2c724d82c7e512f89b39376184a943a25592204cf7058ef9900",
        "40f24aef9bbf1b766bee51a5118a444b1897f05187607850ed766e3f16251689",
    ),
    ("ring-200", "ccr-ebr", "g4"): (
        "2adea9ea5b2d3e39fd2fd3abf7225d2181dce2a731992a2312869463df424aa5",
        "58c4c17e49f7df170a93f8b648e367e8a56b08241dd78669944b0fbe218c4914",
        "498590c656a4f7fc474e969a491e25a25e74580e60fed2e37e6ef9da353fe51e",
        "f6860ba45f92b2c724d82c7e512f89b39376184a943a25592204cf7058ef9900",
        "007f173503b4db3368f098692b34ebae5fa0dd3563e10eac1514e8cc8dd09b90",
    ),
}


def _pinned_input(dataset: str, tmp_path: Path, request) -> Path:
    if dataset != "ring-200":
        return require_dataset(dataset)
    gen = request.getfixturevalue("gen")
    n, edges, _ = gen.ring_of_cliques(200, 4)
    path = tmp_path / "ring-200.gml"
    gen.write_gml(path, [str(v) for v in range(n)], edges)
    return path


@pytest.mark.parametrize("dataset, algo, measure", sorted(PINNED_SHA256))
def test_detect_artifacts_match_pinned_sha256(tmp_path, request, dataset, algo, measure):
    out = tmp_path / "out"
    code = run_cli(
        "detect",
        "--input",
        _pinned_input(dataset, tmp_path, request),
        "--algo",
        algo,
        "--measure",
        measure,
        "--out-dir",
        out,
        "--no-timestamps",
    )
    assert code == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    assert got == dict(zip(ARTIFACTS, PINNED_SHA256[dataset, algo, measure]))


def test_detect_renumbers_the_partition_once(tmp_path, monkeypatch):
    # the run's best partition is dense already; both partition exports use it
    calls = []
    real = Partition.renumbered

    def renumbered(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Partition, "renumbered", renumbered)
    out = tmp_path / "out"
    for algo in ("ccr", "ccr-ebr"):
        calls.clear()
        code = run_cli("detect", "--input", require_dataset("karate"), "--algo", algo,
                       "--out-dir", out, "--no-timestamps")
        assert code == 0 and len(calls) == 1


def _unstamped(text: str) -> str:
    """A stamped JSON artifact's text less its stamp, which has to be one
    line holding the object's first key and nothing else."""
    lines = text.split("\n")
    stamp = r'  "generated_at": "\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00",'
    assert re.fullmatch(stamp, lines[1]), lines[1]
    assert text.count("generated_at") == 1
    return "\n".join(lines[:1] + lines[2:])


def test_detect_timestamps_on_by_default(tmp_path, barbell_file):
    stamped, plain = tmp_path / "stamped", tmp_path / "plain"
    run_cli("detect", "--input", barbell_file, "--out-dir", stamped)
    run_cli("detect", "--input", barbell_file, "--out-dir", plain, "--no-timestamps")
    assert "# generated_at\t" in (stamped / "partition.tsv").read_text()
    for name in ("partition.json", "dendrogram.json"):
        assert _unstamped((stamped / name).read_text()) == (plain / name).read_text()


def test_detect_stamps_every_artifact_with_one_time(tmp_path, barbell_file, monkeypatch):
    # a run that crosses a second boundary still stamps one time
    stamps = iter(f"2026-01-01T00:00:{s:02d}+00:00" for s in range(60))
    monkeypatch.setattr(cli, "_timestamp", lambda: next(stamps))
    out = tmp_path / "out"
    assert run_cli("detect", "--input", barbell_file, "--out-dir", out) == 0
    tsv_stamp = (out / "partition.tsv").read_text().splitlines()[1]
    assert tsv_stamp == "# generated_at\t2026-01-01T00:00:00+00:00"
    for name in ("partition.json", "dendrogram.json"):
        obj = json.loads((out / name).read_text())
        assert obj["generated_at"] == "2026-01-01T00:00:00+00:00", name


def test_detect_rejects_betweenness_for_the_divisive_phase(
    tmp_path, barbell_file, capsys
):
    code = run_cli(
        "detect", "--input", barbell_file, "--measure", "betweenness",
        "--out-dir", tmp_path / "out",
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_detect_rejects_bad_refine_cap(tmp_path, barbell_file):
    code = run_cli(
        "detect", "--input", barbell_file, "--refine-max-passes", "0",
        "--out-dir", tmp_path / "out",
    )
    assert code == 3


def test_detect_g4_measure_runs(tmp_path, barbell_file, capsys):
    code = run_cli(
        "detect", "--input", barbell_file, "--measure", "g4",
        "--out-dir", tmp_path / "out",
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("Q=")


def test_internal_error_exits_5_with_traceback(tmp_path, barbell_file, capsys, monkeypatch):
    def broken(g, cfg):
        raise RuntimeError("engine fault")

    monkeypatch.setitem(cli._RUNNERS, "ccr", broken)
    code = run_cli("detect", "--input", barbell_file, "--out-dir", tmp_path)
    assert code == cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "RuntimeError: engine fault" in err


def _never_run(g, cfg):
    raise AssertionError("the pipeline ran")


@pytest.mark.parametrize("below", [False, True])
def test_detect_unusable_out_dir_exits_2_before_running(
    tmp_path, barbell_file, capsys, monkeypatch, below
):
    # --out-dir naming an existing file, or a path below one
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "out" if below else blocker
    monkeypatch.setitem(cli._RUNNERS, "ccr", _never_run)
    code = run_cli("detect", "--input", barbell_file, "--out-dir", out)
    assert code == cli.EXIT_INPUT == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}")
    assert "Traceback" not in err


def test_detect_names_ignored_gml_keys_without_a_cleanup_line(tmp_path, capsys):
    gml = tmp_path / "weighted.gml"
    gml.write_text(
        "graph [\n"
        "  node [ id 0 ] node [ id 1 ] node [ id 2 ]\n"
        "  edge [ source 0 target 1 value 2 ]\n"
        "  edge [ source 1 target 2 ]\n"
        "  edge [ source 2 target 0 ]\n"
        "]\n",
        encoding="utf-8",
    )
    assert run_cli("detect", "--input", gml, "--out-dir", tmp_path / "out") == 0
    err = capsys.readouterr().err
    assert err.splitlines() == ["warning: ignored GML keys: value"]


def test_detect_reports_dropped_duplicates_and_self_loops(tmp_path, capsys):
    path = tmp_path / "dirty.txt"
    path.write_text(BARBELL_EDGES + "b a\nf f\n", encoding="utf-8")
    assert run_cli("detect", "--input", path, "--out-dir", tmp_path / "out") == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "warning: input cleanup: 1 duplicate edges, 1 self-loops dropped"
    ]


def test_detect_reads_commas_and_ignores_weights(tmp_path, capsys):
    path = tmp_path / "weighted.csv"
    lines = BARBELL_EDGES.replace(" ", ",").splitlines()
    lines[0] += ",0.5"
    lines[3] += " 2"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli("detect", "--input", path, "--out-dir", tmp_path / "out") == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "Q=0.3571 communities=2"
    assert captured.err.splitlines() == ["warning: ignored 2 edge weights"]


@pytest.mark.parametrize("line", ["c d heavy", "c d 0.5 extra"])
def test_detect_rejects_a_bad_weight_column_with_exit_2(tmp_path, capsys, line):
    path = tmp_path / "bad.txt"
    path.write_text(BARBELL_EDGES + line + "\n", encoding="utf-8")
    assert run_cli("detect", "--input", path, "--out-dir", tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_detect_loads_deeply_nested_gml_with_exit_0(tmp_path, capsys):
    # 3000 nested unknown blocks used to raise RecursionError: exit 5
    gml = tmp_path / "deep.gml"
    gml.write_text(
        "graph [ node [ id 0 ] node [ id 1 ] node [ id 2 ]\n"
        "  edge [ source 0 target 1 ] edge [ source 1 target 2 ]\n"
        "  edge [ source 2 target 0 ]\n  " + "x [ " * 3000 + "] " * 3000 + "\n]\n",
        encoding="utf-8",
    )
    assert run_cli("detect", "--input", gml, "--out-dir", tmp_path / "out") == 0
    assert capsys.readouterr().err.splitlines() == ["warning: ignored GML keys: x"]


def test_detect_rejects_an_unterminated_gml_string_with_exit_2(tmp_path, capsys):
    gml = tmp_path / "quote.gml"
    gml.write_text(
        'graph [ node [ id 0 label "a ] node [ id 1 ] edge [ source 0 target 1 ] ]\n',
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run_cli("detect", "--input", gml, "--out-dir", out) == 2
    assert "unterminated string" in capsys.readouterr().err
    assert not (out / "partition.tsv").exists()


@pytest.mark.parametrize("label", ["a\tb", "a\u0085b", "#c"])
def test_a_gml_label_that_breaks_a_tsv_row_exits_2_before_running(tmp_path, capsys, label):
    # "a<TAB>b" used to write the partition.tsv row "a<TAB>b<TAB>0", "a\x85b"
    # a row that `splitlines` breaks in two, and "#c" one that a reader
    # skipping comment lines drops
    gml = tmp_path / "rule.gml"
    gml.write_text(
        f'graph [ node [ id 0 label "{label}" ] node [ id 1 ] edge [ source 0 target 1 ] ]\n',
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run_cli("detect", "--input", gml, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert "tab or line break" in err and repr(label) in err
    assert not (out / "partition.tsv").exists()
    assert run_cli("measures", "--input", gml) == 2
    captured = capsys.readouterr()
    assert "tab or line break" in captured.err and repr(label) in captured.err
    assert captured.out == ""


def test_an_edge_list_label_starting_with_hash_exits_2_before_running(tmp_path, capsys):
    # the line "a #c" used to load the label "#c", and `detect` exited 0
    path = tmp_path / "hash.txt"
    path.write_text(BARBELL_EDGES + "a #c\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("detect", "--input", path, "--out-dir", out) == 2
    assert "'#c'" in capsys.readouterr().err
    assert not (out / "partition.tsv").exists()
    assert run_cli("measures", "--input", path) == 2
    captured = capsys.readouterr()
    assert "'#c'" in captured.err and captured.out == ""


@pytest.mark.parametrize("name", ["bad.txt", "bad.gml"])
def test_detect_rejects_a_non_utf8_input_with_exit_2(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(b"a b\n\xff c\n")
    assert run_cli("detect", "--input", path, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "cannot read" in err and "Traceback" not in err


def test_missing_and_empty_inputs_exit_2(tmp_path, capsys):
    assert run_cli("detect", "--input", tmp_path / "absent.gml") == 2
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    assert run_cli("detect", "--input", empty, "--out-dir", tmp_path / "o") == 2
    assert "error:" in capsys.readouterr().err


def test_a_directory_input_exits_2_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("detect", "--input", tmp_path, "--out-dir", out) == 2
    assert not out.exists()
    assert run_cli("measures", "--input", tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("cannot read") == 2 and "Traceback" not in captured.err


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_measures_reads_a_graph_piped_to_dev_stdin():
    # a pipe is readable, but not a regular file
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-m", "moddiv", "measures", "--input", "/dev/stdin"],
                         input="a b\nb c\nc a\n", capture_output=True, text=True,
                         env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "# u\tv\tscore"
    assert [line.split("\t")[2] for line in lines[1:]] == ["2.0"] * 3


# -- measures ----------------------------------------------------------------


def test_measures_prints_score_table(tmp_path, capsys):
    p = tmp_path / "tri.txt"
    p.write_text("a b\nb c\nc a\n", encoding="utf-8")
    assert run_cli("measures", "--input", p) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# u\tv\tscore"
    assert len(lines) == 4
    assert all(line.split("\t")[2] == "2.0" for line in lines[1:])


def test_measures_betweenness_allowed(tmp_path, capsys):
    p = tmp_path / "path.txt"
    p.write_text("a b\nb c\n", encoding="utf-8")
    assert run_cli("measures", "--input", p, "--measure", "betweenness") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split("\t")[2] for line in lines[1:]] == ["2.0", "2.0"]


def test_measures_reports_dropped_input_on_stderr(tmp_path, capsys):
    path = tmp_path / "dirty.txt"
    path.write_text("a b 1.5\nb c\nc a\na b\nc c\nc d\n", encoding="utf-8")
    assert run_cli("measures", "--input", path) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: input cleanup: 1 duplicate edges, 1 self-loops dropped",
        "warning: ignored 1 edge weights",
    ]
    assert len(captured.out.splitlines()) == 1 + 4  # header, four edges


@pytest.mark.parametrize("command", ["detect", "bench", "measures"])
def test_measure_choices_are_the_measure_names(command):
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    measure = next(a for a in subs.choices[command]._actions if a.dest == "measure")
    assert measure.choices == sorted((BETWEENNESS, CLUSTERING_G3, CLUSTERING_G4))
    assert measure.default == CLUSTERING_G3 == "g3"


# -- verify ------------------------------------------------------------------


def test_verify_emits_machine_readable_report(capsys):
    assert run_cli("verify") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True
    assert obj["seed"] == oracles.DEFAULT_SEED
    assert [c["name"] for c in obj["checks"]] == list(oracles.SUITE_CHECKS)
    assert all(c["passed"] for c in obj["checks"])


# -- bench -------------------------------------------------------------------


@pytest.fixture
def karate_dir(tmp_path) -> Path:
    src = dataset_path("karate")
    if not src.is_file():
        pytest.skip("karate.gml not bundled")
    d = tmp_path / "datasets"
    d.mkdir()
    shutil.copy(src, d / "karate.gml")
    return d


def test_bench_reports_rows_and_warnings(tmp_path, karate_dir, capsys, monkeypatch):
    monkeypatch.setenv("MODDIV_DATA_DIR", str(karate_dir))
    out = tmp_path / "bench-out"
    code = run_cli(
        "bench", "--algo", "ccr", "--out-dir", out, "--no-timestamps", "--strict"
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0].startswith("# dataset\tn\tm\talgorithm\tq_obtained\tq_paper")
    karate = [l for l in lines if l.startswith("karate\t")]
    assert len(karate) == 1
    assert karate[0].split("\t")[-2] == "ok"
    assert "warning:" in captured.err  # the other datasets are absent
    assert (out / "bench.tsv").read_text() == captured.out
    report = json.loads((out / "bench.json").read_text())
    assert report["all_passed"] is True
    assert "generated_at" not in report


def test_bench_json_stamp_is_one_line_before_the_rows(tmp_path, karate_dir, monkeypatch):
    # one set of rows for both runs: each run's wall times differ
    rows = bench.run_bench(karate_dir, algorithms=("ccr",))
    monkeypatch.setattr(bench, "run_bench", lambda *args, **kwargs: rows)
    stamped, plain = tmp_path / "stamped", tmp_path / "plain"
    assert run_cli("bench", "--data-dir", karate_dir, "--out-dir", stamped) == 0
    assert run_cli("bench", "--data-dir", karate_dir, "--out-dir", plain,
                   "--no-timestamps") == 0
    text = (plain / "bench.json").read_text()
    assert _unstamped((stamped / "bench.json").read_text()) == text
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_bench_empty_out_dir_writes_to_the_current_directory(tmp_path, karate_dir,
                                                             monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run_cli("bench", "--data-dir", karate_dir, "--algo", "ccr", "--out-dir", "",
                   "--no-timestamps") == 0
    assert sorted(p.name for p in work.iterdir()) == ["bench.json", "bench.tsv"]


def test_bench_strict_with_no_datasets_exits_4(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    out = tmp_path / "out"
    assert run_cli("bench", "--data-dir", empty, "--strict", "--out-dir", out) == 4
    assert "no datasets" in capsys.readouterr().err
    # bench.json gives the verdict --strict gives
    report = json.loads((out / "bench.json").read_text(encoding="utf-8"))
    assert report["rows"] == [] and report["all_passed"] is False


def test_bench_data_dir_flag_beats_environment(tmp_path, karate_dir, capsys, monkeypatch):
    empty = tmp_path / "nothing"
    empty.mkdir()
    monkeypatch.setenv("MODDIV_DATA_DIR", str(empty))
    assert run_cli("bench", "--data-dir", karate_dir, "--algo", "ccr") == 0
    assert "karate\t" in capsys.readouterr().out


def test_bench_rejects_betweenness(capsys):
    assert run_cli("bench", "--measure", "betweenness") == 3
    assert "error:" in capsys.readouterr().err


def test_bench_out_dir_naming_a_file_exits_2_before_running(
    tmp_path, karate_dir, capsys, monkeypatch
):
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    for algo in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, algo, _never_run)
    code = run_cli("bench", "--data-dir", karate_dir, "--out-dir", blocker)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocker}")
    assert "Traceback" not in err
