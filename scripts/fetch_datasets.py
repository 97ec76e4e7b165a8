#!/usr/bin/env python3
"""Download the non-bundled benchmark datasets and normalize them to GML.

karate and lesmis ship with the repository.  This script fetches the other
five (polbooks, adjnoun, football, jazz, email) from their archives, converts
Pajek files where needed, and writes normalized GML into the data directory.
Needs network access; run it once before `moddiv bench` if you want the full
table.

Usage:
    python3 scripts/fetch_datasets.py [--data-dir DIR] [--only NAME ...]

Already-downloaded archives can be converted offline by dropping the zip
files into <data-dir>/archives/ first.
"""

from __future__ import annotations

import argparse
import io
import sys
import urllib.request
import zipfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from moddiv.bench import DATASETS_BY_NAME  # noqa: E402
from moddiv.graph import Graph, load_gml, write_gml  # noqa: E402

SOURCES = {
    # name: (archive url, member inside the zip, format); the expected size
    # is the dataset's `n` and `m` in `moddiv.bench.DATASETS_BY_NAME`
    "polbooks": (
        "http://www-personal.umich.edu/~mejn/netdata/polbooks.zip",
        "polbooks.gml", "gml",
    ),
    "adjnoun": (
        "http://www-personal.umich.edu/~mejn/netdata/adjnoun.zip",
        "adjnoun.gml", "gml",
    ),
    "football": (
        "http://www-personal.umich.edu/~mejn/netdata/football.zip",
        "football.gml", "gml",
    ),
    "jazz": (
        "http://deim.urv.cat/~alexandre.arenas/data/xarxes/jazz.zip",
        "jazz.net", "pajek",
    ),
    "email": (
        "http://deim.urv.cat/~alexandre.arenas/data/xarxes/email.zip",
        "email.net", "pajek",
    ),
}


def parse_pajek(text: str) -> Graph:
    """Minimal Pajek reader: *Vertices then *Edges/*Arcs with 1-based ids."""
    n = 0
    labels: dict[int, str] = {}
    pairs = []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        low = line.lower()
        if low.startswith("*vertices"):
            n = int(line.split()[1])
            section = "vertices"
            continue
        if low.startswith("*edges") or low.startswith("*arcs"):
            section = "edges"
            continue
        if low.startswith("*"):
            section = None
            continue
        if section == "vertices":
            parts = line.split(None, 1)
            idx = int(parts[0])
            if len(parts) > 1:
                labels[idx] = parts[1].strip().strip('"')
        elif section == "edges":
            parts = line.split()
            u, v = int(parts[0]), int(parts[1])
            if u != v:
                pairs.append((u - 1, v - 1))
    if n == 0:
        raise ValueError("no *Vertices section found")
    label_list = [labels.get(i + 1, str(i + 1)) for i in range(n)]
    return Graph(n, pairs, labels=label_list)


def fetch_archive(name: str, url: str, cache: Path) -> bytes:
    cache.mkdir(parents=True, exist_ok=True)
    local = cache / f"{name}.zip"
    if local.is_file():
        print(f"{name}: using cached {local}")
        return local.read_bytes()
    print(f"{name}: downloading {url}")
    with urllib.request.urlopen(url, timeout=60) as resp:
        blob = resp.read()
    local.write_bytes(blob)
    return blob


def convert(name: str, data_dir: Path) -> bool:
    url, member, fmt = SOURCES[name]
    spec = DATASETS_BY_NAME[name]
    exp_n, exp_m = spec.n, spec.m
    out = data_dir / f"{name}.gml"
    if out.is_file():
        g = load_gml(out)
        if (g.n, g.m) == (exp_n, exp_m):
            print(f"{name}: already present ({g.n} vertices, {g.m} edges)")
            return True
        print(f"{name}: present but has {g.n}/{g.m}, refetching")
    try:
        blob = fetch_archive(name, url, data_dir / "archives")
    except OSError as exc:
        print(f"{name}: download failed: {exc}", file=sys.stderr)
        return False
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        names = zf.namelist()
        target = member if member in names else next(
            (m for m in names if m.endswith(member)), None
        )
        if target is None:
            print(f"{name}: {member} not found in archive ({names})", file=sys.stderr)
            return False
        text = zf.read(target).decode("utf-8", errors="replace")
    if fmt == "gml":
        tmp = data_dir / f".{name}.orig.gml"
        tmp.write_text(text, encoding="utf-8")
        g = load_gml(tmp)
        tmp.unlink()
    else:
        g = parse_pajek(text)
    if (g.n, g.m) != (exp_n, exp_m):
        print(
            f"{name}: warning: expected {exp_n} vertices / {exp_m} edges,"
            f" got {g.n} / {g.m}",
            file=sys.stderr,
        )
    write_gml(g, out)
    print(f"{name}: wrote {out} ({g.n} vertices, {g.m} edges)")
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data-dir", default=str(Path(__file__).resolve().parent.parent / "data"))
    ap.add_argument("--only", nargs="*", choices=sorted(SOURCES), help="subset to fetch")
    args = ap.parse_args()
    data_dir = Path(args.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    wanted = args.only or sorted(SOURCES)
    ok = True
    for name in wanted:
        ok = convert(name, data_dir) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
