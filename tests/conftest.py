from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from moddiv import Graph, Partition, connected_components, modularity_q
from moddiv.oracles import gnp_connected

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


# Labels that JSON text has to escape or that could pass for its syntax:
# quotes, backslashes, event boundaries, non-ASCII, control characters,
# lone surrogates and the empty string.  Tab, CR and LF break the label
# rule that `Graph` enforces; backspace is the one short JSON escape of a
# control character a label may hold.
AWKWARD_LABELS = [
    'a"b', "\\", 'x\\"', '}, {"type": ', '"}, {"type": "move"', "\u00e9\u4e2d\U0001f600",
    "\x00\x01\x1f\x7f", "\x08\x1b", "\ud800", "\udfff", "", "type", ", ",
]


def awkward_graphs():
    """Small seeded graphs whose labels are `AWKWARD_LABELS` or random strings
    of JSON-significant characters, repeated as often as the graph needs."""
    rng = random.Random(1502)
    pool = '"\\{}[],: type\x08\u00e9\ud83d'
    for i in range(10):
        g = gnp_connected(rng, rng.randint(12, 26), rng.choice((0.2, 0.35)))
        if i < 2:
            labels = AWKWARD_LABELS
        else:
            labels = ["".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))
                      for _ in range(5)]
        yield Graph(g.n, g.edges, [labels[v % len(labels)] for v in range(g.n)])


def replayed_tree(g: Graph, lines) -> dict:
    """The `nodes` (leaf members left out) and `final_moves` of a run's
    dendrogram export, rebuilt from its `trace.jsonl` lines.

    The root gets one child per component of `g` when there are several.
    Each accept takes the moves since the previous accept or reject, a
    reject drops the moves before it, and `final-refine` moves go to
    `final_moves`.
    """
    start = Partition(g, connected_components(g).labels)
    nodes = [{"id": 0, "parent": None, "split_q": None, "moves": []}]

    def add(parent: int) -> int:
        nodes.append({"id": len(nodes), "parent": parent, "split_q": None, "moves": []})
        return len(nodes) - 1

    if start.n_communities == 1:
        node_of = {0: 0}
    else:
        nodes[0]["split_q"] = modularity_q(start)
        node_of = {c: add(0) for c in range(start.n_communities)}
    pending: list[dict] = []
    final_moves: list[dict] = []
    for line in lines:
        event = json.loads(line)
        if event["type"] == "move":
            move = {key: event[key] for key in ("vertex", "source", "target", "gain")}
            (final_moves if event.get("stage") == "final-refine" else pending).append(move)
        elif event["type"] == "reject":
            pending = []
        elif event["type"] == "accept":
            nid = node_of.pop(event["community"])
            nodes[nid]["split_q"] = event["q_after"]
            nodes[nid]["moves"] = pending
            pending = []
            for child in event["children"]:
                node_of[child] = add(nid)
    return {"nodes": nodes, "final_moves": final_moves}


def exported_tree(result) -> dict:
    """`nodes` (leaf members left out) and `final_moves` of a run's
    `dendrogram.json` text, to compare with `replayed_tree`."""
    obj = json.loads(result.dendrogram.to_json_text())
    nodes = [{key: value for key, value in node.items() if key != "members"}
             for node in obj["nodes"]]
    return {"nodes": nodes, "final_moves": obj["final_moves"]}


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
