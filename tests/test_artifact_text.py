"""The artifacts' text writers.

`Dendrogram.to_json_text` and `partition_to_json_text` build their text
from f-strings over labels encoded once per graph.  It must be exactly
`json.dumps(obj, indent=2)` of the object the artifact stands for, which
the tests here build field by field from the same run.
"""

from __future__ import annotations

import json
import random

import pytest

from moddiv import (
    CLUSTERING_G3,
    CLUSTERING_G4,
    EngineConfig,
    Graph,
    load_gml,
    modularity_q,
    run_ccr,
    run_ccr_ebr,
)
from moddiv.modularity import partition_to_json_text
from moddiv.oracles import gnp_connected

from conftest import awkward_graphs, require_dataset

RUNNERS = pytest.mark.parametrize("runner", [run_ccr, run_ccr_ebr], ids=["ccr", "ccr-ebr"])


def _dendrogram_obj(d) -> dict:
    labels = d.graph.labels

    def move(mv) -> dict:
        return {"vertex": labels[mv.vertex], "source": mv.source, "target": mv.target,
                "gain": mv.gain}

    nodes = []
    for node in d.nodes:
        obj = {"id": node.node_id, "parent": node.parent, "split_q": node.split_q,
               "moves": [move(mv) for mv in node.moves]}
        if not node.children:
            obj["members"] = [labels[v] for v in node.members]
        nodes.append(obj)
    return {
        "n_vertices": d.graph.n,
        "nodes": nodes,
        "final_moves": [move(mv) for mv in d.final_moves],
        "trace": [{"step": t.step, "q": t.q, "n_communities": t.n_communities}
                  for t in d.trace],
    }


def _partition_obj(p) -> dict:
    dense = p.renumbered()
    g = dense.graph
    return {
        "q": modularity_q(dense),
        "n_communities": dense.n_communities,
        "communities": [
            {
                "id": c,
                "size": len(dense.communities[c].members),
                "internal_edges": dense.communities[c].internal_twice // 2,
                "total_degree": dense.communities[c].total_degree,
                "members": [g.labels[v] for v in dense.members(c)],
            }
            for c in sorted(dense.communities)
        ],
    }


def _checked_dendrogram(result) -> dict:
    """Check both JSON texts of `result`; return the parsed dendrogram."""
    texts = (partition_to_json_text(result.best_partition), result.dendrogram.to_json_text())
    objs = (_partition_obj(result.best_partition), _dendrogram_obj(result.dendrogram))
    for text, obj in zip(texts, objs):
        assert text == json.dumps(obj, indent=2)
        assert text == json.dumps(json.loads(text), indent=2)
    return json.loads(texts[1])


@RUNNERS
@pytest.mark.parametrize("measure", [CLUSTERING_G3, CLUSTERING_G4], ids=["g3", "g4"])
@pytest.mark.parametrize("name", ["karate", "lesmis", "ring-200"])
def test_json_text_is_the_indented_dumps(request, name, measure, runner):
    if name == "ring-200":
        n, edges, _ = request.getfixturevalue("gen").ring_of_cliques(200, 4)
        g = Graph(n, edges)
    else:
        g = load_gml(require_dataset(name))
    _checked_dendrogram(runner(g, EngineConfig(measure=measure)))


@RUNNERS
@pytest.mark.parametrize("index", range(10))
def test_json_text_on_awkward_labels(index, runner):
    # labels holding quotes, backslashes, `}, {"type": `, control
    # characters, lone surrogates and the empty string
    _checked_dendrogram(runner(list(awkward_graphs())[index]))


def test_json_text_covers_every_tree_shape():
    """Moves of the closing global refinement, leaves that refinement
    emptied (`"members": []`), and the root of a disconnected input, which
    holds the starting Q and has one child per component."""
    rng = random.Random(7)
    graphs = [gnp_connected(rng, rng.randint(10, 40), rng.choice((0.1, 0.15, 0.25)))
              for _ in range(25)]
    graphs.append(Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]))
    seen = set()
    for g in graphs:
        for runner in (run_ccr, run_ccr_ebr):
            obj = _checked_dendrogram(runner(g))
            root = obj["nodes"][0]
            if obj["final_moves"]:
                seen.add("final moves")
            if any(node.get("members") == [] for node in obj["nodes"]):
                seen.add("emptied leaf")
            if obj["trace"][0]["n_communities"] > 1:
                assert root["parent"] is None
                assert root["split_q"] == obj["trace"][0]["q"]
                seen.add("disconnected root")
    assert seen == {"final moves", "emptied leaf", "disconnected root"}


def test_newick_labels_lose_reserved_characters(barbell):
    labels = ["a b", "c,d", "(e)", "f:g;h", "[i]", "j'k"]
    result = run_ccr(Graph(barbell.n, barbell.edges, labels))
    assert result.dendrogram.to_newick() == "((a_b,c_d,_e_),(f_g_h,_i_,j_k));\n"
