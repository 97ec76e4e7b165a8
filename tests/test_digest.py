"""`scripts/digest.py` on the bundled datasets alone (no seeds)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digest.py"


def _digest(*flags: str) -> str:
    return subprocess.run([sys.executable, str(SCRIPT), "--seeds", *flags], check=True,
                          capture_output=True, text=True, timeout=300).stdout


def test_digest_prints_one_stable_sha256_per_artifact():
    plain, each = _digest(), _digest("--each")
    digests = [line.split("  ") for line in plain.splitlines()]
    assert [name for _, name in digests] == ["partition.tsv", "partition.json",
                                             "dendrogram.json", "dendrogram.newick", "trace.jsonl",
                                             "measures.tsv"]
    assert all(len(digest) == 64 for digest, _ in digests)
    # the two calls agree, and `--each` puts one line per input in front
    assert each.endswith(plain)
    assert [line.split()[0] for line in each.splitlines()[:-6]] == ["karate", "lesmis"]
