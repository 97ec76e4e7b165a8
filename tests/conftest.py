from __future__ import annotations

import os
from pathlib import Path

import pytest

from moddiv import Graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DATA_DIR = Path(
    os.environ.get("MODDIV_DATA_DIR")
    or Path(__file__).resolve().parent.parent / "data"
)


def dataset_path(name: str) -> Path:
    return DATA_DIR / f"{name}.gml"


def require_dataset(name: str) -> Path:
    path = dataset_path(name)
    if not path.is_file():
        pytest.skip(f"dataset {name} not present; run scripts/fetch_datasets.py")
    return path


@pytest.fixture
def gen(monkeypatch):
    """The seeded graph generators of `perfbench/gen.py`."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    return gen


@pytest.fixture
def path3() -> Graph:
    # a - b - c
    return Graph(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])


@pytest.fixture
def star5() -> Graph:
    # hub 0 with four spokes
    return Graph(5, [(0, i) for i in range(1, 5)])


@pytest.fixture
def k3() -> Graph:
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def k4() -> Graph:
    return Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


@pytest.fixture
def c4() -> Graph:
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def c5() -> Graph:
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


@pytest.fixture
def barbell() -> Graph:
    # two triangles joined by the (2, 3) bridge; edge 3 is the bridge
    return Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])


@pytest.fixture
def two_triangles() -> Graph:
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
