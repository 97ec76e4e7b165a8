from __future__ import annotations

import json
import random

import pytest

from moddiv import (
    Graph,
    GraphLoadError,
    Subgraph,
    connected_components,
    load_edge_list,
    load_gml,
    write_edge_list,
    write_gml,
)
from moddiv.graph import reachable_within

from conftest import AWKWARD_LABELS


def test_graph_canonicalizes_duplicates_and_self_loops(tmp_path):
    path = tmp_path / "dups.txt"
    path.write_text("a b\nb a\na a\n", encoding="utf-8")
    g = load_edge_list(path)
    assert (g.n, g.m) == (2, 1)
    assert g.warnings.duplicates == 1
    assert g.warnings.self_loops == 1
    assert g.labels == ["a", "b"]


def test_label_json_is_each_label_json_dumps_encoded_once():
    g = Graph(len(AWKWARD_LABELS), [], AWKWARD_LABELS)
    assert g.label_json == [json.dumps(label) for label in AWKWARD_LABELS]
    assert g.label_json is g.label_json
    assert Graph(3, []).label_json == ['"0"', '"1"', '"2"']


def test_edge_list_first_appearance_ids(tmp_path):
    path = tmp_path / "order.txt"
    path.write_text("b a\nc b\n", encoding="utf-8")
    g = load_edge_list(path)
    assert g.labels == ["b", "a", "c"]
    assert g.edges == [(0, 1), (0, 2)]


def test_edge_list_bad_token_count_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a b\nx y z\n", encoding="utf-8")
    with pytest.raises(GraphLoadError) as err:
        load_edge_list(path)
    assert "2" in str(err.value)  # offending line number


def test_edge_list_splits_on_commas_and_whitespace(tmp_path):
    path = tmp_path / "commas.csv"
    path.write_text("1,2\n2, 3\n3 ,1\n3\t4\n", encoding="utf-8")
    g = load_edge_list(path)
    assert g.labels == ["1", "2", "3", "4"]
    assert g.edges == [(0, 1), (1, 2), (0, 2), (2, 3)]
    assert g.warnings.weights == 0


def test_edge_list_numeric_third_token_is_an_ignored_weight(tmp_path):
    path = tmp_path / "weighted.txt"
    path.write_text("1 2 0.5\n2,3,7\n3 1\n", encoding="utf-8")
    g = load_edge_list(path)
    assert (g.n, g.m) == (3, 3)
    assert g.warnings.weights == 2


@pytest.mark.parametrize("line", ["1 2 heavy", "1 2 0.5 extra"])
def test_edge_list_rejects_a_bad_third_or_a_fourth_token(tmp_path, line):
    path = tmp_path / "bad.txt"
    path.write_text(f"0 1\n{line}\n", encoding="utf-8")
    with pytest.raises(GraphLoadError, match=":2:"):
        load_edge_list(path)


def test_edge_list_no_edges_is_an_error(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(GraphLoadError):
        load_edge_list(path)


def test_edge_list_comments_and_blank_lines(tmp_path):
    path = tmp_path / "comments.txt"
    path.write_text("# header\n\na b\n# trailing\nb c\n", encoding="utf-8")
    g = load_edge_list(path)
    assert (g.n, g.m) == (3, 2)


def test_gml_round_trip(tmp_path, barbell):
    path = tmp_path / "barbell.gml"
    write_gml(barbell, path)
    back = load_gml(path)
    assert back.n == barbell.n
    assert back.m == barbell.m
    assert back.labels == barbell.labels
    assert back.edges == barbell.edges


def test_edge_list_round_trip(tmp_path, barbell):
    path = tmp_path / "barbell.txt"
    write_edge_list(barbell, path)
    back = load_edge_list(path)
    assert (back.n, back.m) == (barbell.n, barbell.m)
    assert back.edges == barbell.edges


# One character of each class the label rule refuses: a tab, and every
# character `str.splitlines` breaks at; then a leading `#`.
RULE_BREAKS = ["\t", "\n", "\v", "\f", "\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
RULE_LABELS = [f"a{ch}b" for ch in RULE_BREAKS] + ["#c"]


@pytest.mark.parametrize("label", ["1 2", "a,b", ""] + RULE_LABELS)
def test_edge_list_writer_rejects_labels_that_do_not_read_back(tmp_path, label):
    # "1 2\t3" would read back as the edge 1-2 with an ignored weight 3; a
    # label that breaks the rule cannot make a Graph to write
    with pytest.raises(ValueError):
        write_edge_list(Graph(2, [(0, 1)], labels=[label, "3"]), tmp_path / "out.txt")
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("label", ['a"b'] + RULE_LABELS)
def test_gml_writer_rejects_labels_that_do_not_read_back(tmp_path, label):
    # a quote used to be written as an apostrophe, changing the label, and
    # "a\x85b" or "#c" was written for `partition.tsv` to break or drop;
    # `Graph` now refuses the latter before any writer sees them
    with pytest.raises(ValueError) as err:
        write_gml(Graph(2, [(0, 1)], labels=[label, "c"]), tmp_path / "out.gml")
    assert repr(label) in str(err.value)
    assert not (tmp_path / "out.gml").exists()


@pytest.mark.parametrize("label", RULE_LABELS)
def test_graph_refuses_a_label_that_breaks_the_rule(label):
    # such a label split or dropped the rows `partition_to_tsv` wrote for a
    # Graph built in code; the rule now holds for every Graph
    with pytest.raises(ValueError, match="tab or line break") as err:
        Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], labels=["d", label, "e", "f"])
    assert repr(label) in str(err.value)


@pytest.mark.parametrize("label", RULE_LABELS + ["\t"])
def test_gml_labels_that_break_a_tsv_row_are_an_error(tmp_path, label):
    path = tmp_path / "tab.gml"
    path.write_text(
        f'graph [ node [ id 0 label "{label}" ] node [ id 1 ] edge [ source 0 target 1 ] ]\n',
        encoding="utf-8", newline="",
    )
    with pytest.raises(GraphLoadError, match="tab or line break"):
        load_gml(path)


def test_label_rule_keeps_other_labels(tmp_path):
    # `#` only counts at the start, and U+001F is no line break to `splitlines`
    path = tmp_path / "ok.gml"
    path.write_text(
        'graph [ node [ id 0 label c# ] node [ id 1 label "a\x1fb" ]'
        " edge [ source 0 target 1 ] ]\n",
        encoding="utf-8",
    )
    g = load_gml(path)
    assert g.labels == ["c#", "a\x1fb"]
    write_gml(g, tmp_path / "back.gml")
    assert load_gml(tmp_path / "back.gml").labels == g.labels


def test_edge_list_label_starting_with_hash_is_an_error(tmp_path):
    # the line "a #c" used to load the label "#c"
    path = tmp_path / "hash.txt"
    path.write_text("a b\na #c\n", encoding="utf-8")
    with pytest.raises(GraphLoadError, match="'#c'"):
        load_edge_list(path)


def test_gml_labels_with_spaces(tmp_path):
    path = tmp_path / "spaces.gml"
    path.write_text(
        'graph [\n'
        '  node [ id 1 label "A Book Title" ]\n'
        '  node [ id 2 label "Another, One" ]\n'
        '  edge [ source 1 target 2 ]\n'
        ']\n',
        encoding="utf-8",
    )
    g = load_gml(path)
    assert g.labels == ["A Book Title", "Another, One"]
    assert g.m == 1


def test_gml_bare_labels_keep_their_text(tmp_path):
    # bare labels used to be read as numbers: 007 and 7 both became "7",
    # and 1e3 became "1000.0"
    path = tmp_path / "numeric.gml"
    path.write_text(
        'graph [\n'
        '  node [ id 0 label 007 ]\n'
        '  node [ id 1 label 7 ]\n'
        '  node [ id 2 label 1e3 ]\n'
        '  node [ id 03 label "007" ]\n'
        '  edge [ source 0 target 1 ]\n'
        '  edge [ source 1 target 2 ]\n'
        '  edge [ source 2 target 3 ]\n'
        ']\n',
        encoding="utf-8",
    )
    g = load_gml(path)
    assert g.labels == ["007", "7", "1e3", "007"]
    assert g.edges == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("node, message", [
    ('id "0"', "integer id"),
    ("id 0.0", "integer id"),
    ("id [ x 0 ]", "integer id"),
    # GML integers are ASCII digits; `int` reads both of these as numbers
    ("id 1_0", "integer id"),
    ("id \u0663", "integer id"),
    ("id 0 label [ x 0 ]", "label is a block"),
    # a `]` closes a block and is no value, at any depth
    ("id 0 label", "key 'label' has no value"),
    ("id 0 graphics [ label ]", "key 'label' has no value"),
    # more digits than `int` reads is a load fault, not a ValueError
    pytest.param("id " + "1" * 5000, "too long", id="id 1x5000"),
])
def test_gml_ids_stay_integers_and_labels_values(tmp_path, node, message):
    path = tmp_path / "bad.gml"
    path.write_text(
        f"graph [ node [ {node} ] node [ id 1 ] edge [ source 0 target 1 ] ]\n",
        encoding="utf-8",
    )
    with pytest.raises(GraphLoadError, match=message):
        load_gml(path)


@pytest.mark.parametrize("load, text", [
    (load_edge_list, "a b\nb c\nc a\n"),
    (load_gml, "graph [ node [ id 0 label \"a\" ] node [ id 1 ]"
               " edge [ source 0 target 1 ] ]\n"),
])
def test_a_byte_order_mark_is_not_part_of_the_text(tmp_path, load, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    want, got = load(plain), load(marked)
    assert (got.labels, got.edges, got.warnings) == (want.labels, want.edges, want.warnings)


def test_gml_unknown_keys_warn(tmp_path):
    path = tmp_path / "extra.gml"
    path.write_text(
        "graph [\n"
        "  directed 0\n"
        "  node [ id 0 label \"x\" value 3 ]\n"
        "  node [ id 1 ]\n"
        "  edge [ source 0 target 1 weight 2.5 ]\n"
        "]\n",
        encoding="utf-8",
    )
    g = load_gml(path)
    assert g.m == 1
    assert g.warnings.unknown_keys  # value/weight got noted


def test_gml_directed_1_is_read_undirected(tmp_path):
    path = tmp_path / "directed.gml"
    path.write_text(
        "graph [ directed 1 node [ id 0 ] node [ id 1 ]"
        " edge [ source 0 target 1 ] edge [ source 1 target 0 ] ]\n",
        encoding="utf-8",
    )
    g = load_gml(path)
    assert g.edges == [(0, 1)]
    assert g.warnings.duplicates == 1
    assert g.warnings.unknown_keys == ()


def test_gml_duplicate_node_id_is_an_error(tmp_path):
    path = tmp_path / "dupnode.gml"
    path.write_text(
        "graph [ node [ id 5 ] node [ id 5 ] edge [ source 5 target 5 ] ]\n",
        encoding="utf-8",
    )
    with pytest.raises(GraphLoadError):
        load_gml(path)


def test_gml_edge_to_missing_node_is_an_error(tmp_path):
    path = tmp_path / "dangling.gml"
    path.write_text(
        "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 9 ] ]\n",
        encoding="utf-8",
    )
    with pytest.raises(GraphLoadError) as err:
        load_gml(path)
    assert "9" in str(err.value)


@pytest.mark.parametrize("loader, text", [
    (load_edge_list, b"a b\n\xff c\n"),
    (load_gml, b'graph [ node [ id 0 label "\xff" ] ]\n'),
])
def test_non_utf8_input_is_a_load_error(tmp_path, loader, text):
    path = tmp_path / "latin1.txt"
    path.write_bytes(text)
    with pytest.raises(GraphLoadError, match="cannot read"):
        loader(path)


def test_gml_empty_file_is_an_error(tmp_path):
    path = tmp_path / "empty.gml"
    path.write_text("", encoding="utf-8")
    with pytest.raises(GraphLoadError):
        load_gml(path)


def test_gml_parses_any_nesting_depth(tmp_path):
    # each nested block used to cost one Python frame: depth 3000 raised
    # RecursionError
    depth = 5000
    path = tmp_path / "deep.gml"
    path.write_text(
        "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 ]\n"
        + "x [ " * depth + "] " * depth + "]\n",
        encoding="utf-8",
    )
    g = load_gml(path)
    assert (g.n, g.m) == (2, 1)
    assert g.warnings.unknown_keys == ("x",)


def test_gml_unterminated_string_is_an_error(tmp_path):
    # `"a` read as a bare token used to become the empty label
    path = tmp_path / "quote.gml"
    path.write_text(
        'graph [ node [ id 0 label "a ] node [ id 1 ] edge [ source 0 target 1 ] ]\n',
        encoding="utf-8",
    )
    with pytest.raises(GraphLoadError, match="unterminated string"):
        load_gml(path)


@pytest.mark.parametrize("text", [
    "graph [ node [ id " + "1" * 5000 + " ] ]",  # an integer too long to read
    "graph [ node [ id 0 label ] ]",  # a key with no value
    'graph [ node [ id 0 label "a ] ]',  # an unterminated string
    "graph [ node [ id 0 ]",  # an unterminated block
])
def test_every_malformed_gml_error_names_the_file(tmp_path, text):
    path = tmp_path / "bad.gml"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(GraphLoadError, match="malformed GML") as err:
        load_gml(path)
    assert str(err.value).startswith(f"{path}: ")


def test_subgraph_remove_edge(barbell):
    sub = Subgraph(barbell, range(6))
    assert list(sub) == list(range(6)) and len(sub) == 6
    assert sub.nbrs[2] == {0: 1, 1: 2, 3: 3}
    sub.remove_edge(3, 2)  # the bridge, endpoints in either order
    assert sub.nbrs[2] == {0: 1, 1: 2}
    assert 2 not in sub.nbrs[3]
    assert reachable_within(sub, 0) == {0, 1, 2}
    sub.remove_edge(0, 1)
    assert list(sub.nbrs[1]) == [2]
    # the input graph is untouched
    assert connected_components(barbell).count == 1
    with pytest.raises(KeyError):
        sub.remove_edge(2, 3)


def test_subgraph_rows_follow_ascending_vertex_ids(barbell):
    sub = Subgraph(barbell, [5, 4, 0, 2, 1, 4])
    assert list(sub) == [0, 1, 2, 4, 5]
    # edges leaving the vertex set are left out
    assert sub.nbrs == {0: {1: 0, 2: 1}, 1: {0: 0, 2: 2}, 2: {0: 1, 1: 2}, 4: {5: 6}, 5: {4: 6}}
    assert all(list(row) == sorted(row) for row in sub.nbrs.values())
    sub.remove_edge(0, 1)
    assert list(sub.nbrs[2]) == [0, 1]


def _insert(sub: Subgraph, g: Graph, v: int) -> None:
    """Add vertex v with its edges to the live vertices, one edge at a time."""
    sub.add_vertex(v)
    for w, eid in g.adj[v]:
        if w in sub.nbrs:
            sub.add_edge(v, w, eid)


def test_subgraph_drop_add_and_split_off(barbell):
    sub = Subgraph(barbell, [0, 1, 2, 3])
    assert sub.drop_vertex(2) == {0: 1, 1: 2, 3: 3}
    assert list(sub) == [0, 1, 3] and len(sub) == 3
    assert sub.nbrs == {0: {1: 0}, 1: {0: 0}, 3: {}}
    sub.add_vertex(4)
    assert sub.nbrs[4] == {}
    sub.add_edge(3, 4, 4)
    assert sub.nbrs[3] == {4: 4} and sub.nbrs[4] == {3: 4}
    assert list(sub) == [0, 1, 3, 4]
    sub.remove_edge(0, 1)
    sub.add_edge(1, 0, 0)
    assert sub.nbrs[0] == {1: 0} and sub.nbrs[1] == {0: 0}
    # an added vertex only meets the live vertices its caller joins: 2 was
    # dropped
    _insert(sub, barbell, 5)
    assert sub.nbrs[5] == {3: 5, 4: 6}
    # a re-added vertex comes last
    _insert(sub, barbell, 2)
    assert list(sub) == [0, 1, 3, 4, 5, 2]
    assert sub.nbrs[2] == {0: 1, 1: 2, 3: 3}
    sub.drop_vertex(2)
    with pytest.raises(KeyError):
        sub.drop_vertex(2)
    # {0, 1} shares no edge with {3, 4, 5}: its rows move to their own
    # subgraph
    part = sub.split_off([1, 0])
    assert list(part) == [1, 0] and part.nbrs == {0: {1: 0}, 1: {0: 0}}
    assert list(sub) == [3, 4, 5]


def _flood_fill_labels(g: Graph, removed: set) -> list:
    # independent reference: repeated flood fill over an adjacency copy
    adj = {v: set() for v in range(g.n)}
    for eid, (u, v) in enumerate(g.edges):
        if eid not in removed:
            adj[u].add(v)
            adj[v].add(u)
    labels = [-1] * g.n
    next_label = 0
    for start in range(g.n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = next_label
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if labels[w] == -1:
                    labels[w] = next_label
                    stack.append(w)
        next_label += 1
    return labels


def test_connected_components_matches_flood_fill():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(2, 200)
        p = rng.choice((0.005, 0.02, 0.08))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if not pairs:
            pairs = [(0, 1)]
        g = Graph(n, pairs)
        removed = {eid for eid in range(g.m) if rng.random() < 0.2}
        kept = [g.edges[eid] for eid in range(g.m) if eid not in removed]
        got = connected_components(Graph(n, kept))
        want = _flood_fill_labels(g, removed)
        assert got.count == len(set(want))
        # same grouping regardless of label numbering
        pairing = {}
        for a, b in zip(got.labels, want):
            pairing.setdefault(a, b)
            assert pairing[a] == b


def test_subgraph_rejects_empty_subset(barbell):
    with pytest.raises(ValueError):
        Subgraph(barbell, [])


@pytest.mark.parametrize("members", [[-1, 2], [2, 4], [0, 1, 2, 3, 4]])
def test_subgraph_rejects_members_outside_the_graph(members):
    # -1 used to alias vertex 3 of the path and leave one-sided rows
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="outside"):
        Subgraph(path, members)


def test_reachable_within_early_stop(barbell):
    sub = Subgraph(barbell, range(6))
    side = reachable_within(sub, 0, stop_at=3)
    assert side == {0, 1, 2, 3}  # early exit once the target shows up
    sub.remove_edge(2, 3)
    side = reachable_within(sub, 0, stop_at=5)
    assert 5 not in side
    assert side == {0, 1, 2}
    sub = Subgraph(barbell, [0, 1, 3, 4, 5])
    assert reachable_within(sub, 4) == {3, 4, 5}


def test_reachable_within_meets_at_a_common_neighbour():
    # 0 and 1 share neighbour 2; the path 5-7-8-9 beyond 1 is never reached
    g = Graph(10, [(0, 2), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6), (5, 7), (7, 8), (8, 9)])
    side = reachable_within(Subgraph(g, range(10)), 0, stop_at=1)
    assert {0, 1, 2} <= side
    assert side.isdisjoint({7, 8, 9})


def _triangle_and_clique(n_clique: int) -> Graph:
    # triangle 0-1-2 bridged by (2, 3) to a clique on 3..3+n_clique-1
    clique = range(3, 3 + n_clique)
    pairs = [(0, 1), (0, 2), (1, 2), (2, 3)]
    pairs += [(a, b) for a in clique for b in clique if a < b]
    return Graph(3 + n_clique, pairs)


def test_reachable_within_start_side_runs_out_first():
    g = _triangle_and_clique(8)
    sub = Subgraph(g, range(g.n))
    sub.remove_edge(2, 3)
    assert reachable_within(sub, 0, stop_at=3) == {0, 1, 2}


def test_reachable_within_stop_side_runs_out_first():
    # the small side is stop_at's: stop_at's whole component comes back,
    # and the start's is never walked
    g = _triangle_and_clique(8)
    sub = Subgraph(g, range(g.n))
    sub.remove_edge(2, 3)
    assert reachable_within(sub, 3, stop_at=0) == {0, 1, 2}


def test_reachable_within_skips_dropped_and_keeps_inserted_vertices():
    # clique 0..5, vertex 6 on 0 and 1, triangle 7-8-9 bridged by (5, 7)
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    pairs += [(0, 6), (1, 6), (5, 7), (7, 8), (7, 9), (8, 9)]
    g = Graph(10, pairs)
    sub = Subgraph(g, [v for v in range(10) if v != 4])
    sub.drop_vertex(6)
    _insert(sub, g, 4)
    sub.remove_edge(5, 7)
    # the triangle runs out first: the clique side, with its dropped vertex
    # and its inserted one, is never walked
    assert reachable_within(sub, 5, stop_at=7) == {7, 8, 9}
    assert reachable_within(sub, 7, stop_at=5) == {7, 8, 9}
    sub.drop_vertex(8)
    sub.drop_vertex(9)
    sub.drop_vertex(7)
    _insert(sub, g, 7)  # a lone vertex once 5-7 goes
    sub.remove_edge(5, 7)
    assert reachable_within(sub, 0, stop_at=7) == {7}
    assert list(sub) == [0, 1, 2, 3, 5, 4, 7]


def _component(sub: Subgraph, start: int) -> set:
    seen = {start}
    stack = [start]
    while stack:
        for w in sub.nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _live_edges(g: Graph, sub: Subgraph) -> list:
    return [(u, v) for u, v in g.edges if u in sub.nbrs and v in sub.nbrs[u]]


def test_reachable_within_agrees_with_a_plain_search_under_removals():
    # remove random edges from connected random subgraphs; after a split
    # keep one side, as a reconciled subgraph does, and now and then insert
    # a vertex with a live neighbour
    rng = random.Random(7)
    splits = 0
    for _ in range(60):
        n = rng.randint(4, 40)
        p = rng.choice((0.1, 0.2, 0.4))
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        members = rng.sample(range(n), rng.randint(2, n))
        sub = Subgraph(g, members)
        for v in set(sub) - _component(sub, members[0]):
            sub.drop_vertex(v)
        while _live_edges(g, sub):
            if rng.random() < 0.2:
                outside = [v for v in range(n) if v not in sub.nbrs
                           and any(w in sub.nbrs for w, _ in g.adj[v])]
                if outside:
                    _insert(sub, g, rng.choice(outside))
            u, v = rng.choice(_live_edges(g, sub))
            sub.remove_edge(u, v)
            side = reachable_within(sub, u, stop_at=v)
            want = _component(sub, u)
            if v in want:
                assert {u, v} <= side
            else:  # exactly the component of whichever end it holds
                assert side == (want if u in side else _component(sub, v))
                splits += 1
                for w in want if rng.random() < 0.5 else _component(sub, v):
                    sub.drop_vertex(w)
    assert splits > 50


def assert_simple(g):
    """The simple-graph invariants: degrees sum to 2m, no loops or
    repeated edges, and every adjacency entry has its mirror."""
    assert sum(g.degrees) == 2 * g.m
    for u, v in g.edges:
        assert u != v
    assert len(set(g.edges)) == g.m
    for v in range(g.n):
        for w, eid in g.adj[v]:
            assert (v, eid) in g.adj[w]


def test_validate_on_random_graphs():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 60)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1]
        if not pairs:
            pairs = [(0, 1)]
        assert_simple(Graph(n, pairs))


def test_graph_rejects_bad_vertex_ids():
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    with pytest.raises(ValueError, match="vertex count"):
        Graph(-1, [])
