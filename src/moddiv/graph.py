"""Graph representation, file loaders, and connectivity queries.

The whole library works on a simple undirected graph with dense vertex ids
0..n-1 and dense edge ids 0..m-1.  Vertex and edge ids are assigned in
first-appearance order of the input file, which makes every downstream
tie-break (and therefore every run) reproducible for a given input.
"""

from __future__ import annotations

import re
from collections import deque
from json.encoder import encode_basestring_ascii

from .record import Record


class GraphLoadError(Exception):
    """Input file could not be parsed into a valid simple graph."""


class LoadWarnings(Record):
    """Counters for input constructs dropped during canonicalization.

    `weights` counts edge-list weights, ignored: the graph is unweighted.
    """

    __slots__ = ("duplicates", "self_loops", "unknown_keys", "weights")

    def __init__(self, duplicates: int = 0, self_loops: int = 0,
                 unknown_keys: tuple[str, ...] = (), weights: int = 0):
        self.duplicates = duplicates
        self.self_loops = self_loops
        self.unknown_keys = unknown_keys
        self.weights = weights


# The label rule keeps a label one field of one TSV row, also for readers
# that split with `str.splitlines` and skip `#` comment lines: no tab, no
# character `splitlines` breaks at, no leading `#`.
_BAD_LABEL = re.compile(r"^#|[\t\n\v\f\r\x1c-\x1e\x85\u2028\u2029]")


class Graph:
    """Immutable simple undirected graph.

    Attributes:
        n: vertex count, at least 0.
        m: edge count.
        labels: per-vertex display label (defaults to the vertex id as text).
            A label that holds a tab or a line break, or starts with `#`,
            raises ValueError (the label rule, `_BAD_LABEL`).
        label_json: per-vertex label as JSON text, `json.dumps(label)`.
        edges: edge id -> (u, v) with u < v.
        adj: per-vertex list of (neighbor, edge id), sorted by neighbor.
        degrees: per-vertex degree.
        warnings: canonicalization counters from the loader, if any.
    """

    __slots__ = ("n", "m", "labels", "edges", "adj", "degrees", "warnings", "_label_json")

    def __init__(
        self,
        n: int,
        pairs: list[tuple[int, int]],
        labels: list[str] | None = None,
        extra_warnings: LoadWarnings | None = None,
    ):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, not {n}")
        if labels is not None:
            if len(labels) != n:
                raise ValueError("labels length must equal vertex count")
            for label in labels:
                if _BAD_LABEL.search(label):
                    raise ValueError(
                        f"label {label!r} holds a tab or line break or starts with '#',"
                        " which the TSV outputs cannot hold"
                    )
        self.n = n
        self.labels = list(labels) if labels is not None else [str(v) for v in range(n)]
        self._label_json: list[str] | None = None

        edges: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        duplicates = 0
        self_loops = 0
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
            if u == v:
                self_loops += 1
                continue
            key = (u, v) if u < v else (v, u)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            edges.append(key)
        self.edges = edges
        self.m = len(edges)

        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        for lst in adj:
            lst.sort()
        self.adj = adj
        self.degrees = [len(lst) for lst in adj]

        extra = extra_warnings or LoadWarnings()
        self.warnings = LoadWarnings(duplicates, self_loops, extra.unknown_keys, extra.weights)

    @property
    def label_json(self) -> list[str]:
        # encoded on first use and kept: a run's trace lines and its JSON
        # artifacts all take their labels from here
        if self._label_json is None:
            self._label_json = [encode_basestring_ascii(label) for label in self.labels]
        return self._label_json

    def edge_label_pair(self, eid: int) -> tuple[str, str]:
        u, v = self.edges[eid]
        return self.labels[u], self.labels[v]


class Subgraph:
    """Mutable copy of the subgraph induced by one vertex set.

    Bisection deletes edges from this object alone.  `nbrs[v]` maps each
    neighbour of the live vertex v to the edge id joining them.  A fresh
    subgraph holds its vertices in ascending id order and fills each row
    in ascending neighbour order, which dicts keep through deletions; an
    added vertex comes last.  Iterating a subgraph yields its live
    vertex ids in that order.
    """

    __slots__ = ("nbrs",)

    def __init__(self, graph: Graph, members):
        verts = sorted(set(members))
        if not verts:
            raise ValueError("vertex subset must be nonempty")
        if verts[0] < 0 or verts[-1] >= graph.n:
            raise ValueError(f"vertex subset reaches outside 0..{graph.n - 1}")
        self.nbrs = nbrs = dict.fromkeys(verts)
        for v in verts:
            row = nbrs[v] = {}
            for w, eid in graph.adj[v]:
                if w in nbrs:
                    row[w] = eid

    def __len__(self) -> int:
        return len(self.nbrs)

    def __iter__(self):
        return iter(self.nbrs)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the edge between vertices u and v."""
        del self.nbrs[u][v]
        del self.nbrs[v][u]

    def add_edge(self, u: int, v: int, eid: int) -> None:
        """Add edge `eid` between vertices u and v."""
        self.nbrs[u][v] = eid
        self.nbrs[v][u] = eid

    def drop_vertex(self, v: int) -> dict[int, int]:
        """Remove vertex v with its edges; returns its former row."""
        row = self.nbrs.pop(v)
        for w in row:
            del self.nbrs[w][v]
        return row

    def add_vertex(self, v: int) -> None:
        """Add vertex v with no edges; `add_edge` then joins it to live
        vertices."""
        self.nbrs[v] = {}

    def split_off(self, vertices) -> Subgraph:
        """Move the live `vertices`, which share no edge with the rest, and
        their rows into a new subgraph."""
        part = Subgraph.__new__(Subgraph)
        nbrs = self.nbrs
        part.nbrs = {v: nbrs.pop(v) for v in vertices}
        return part


class ComponentLabeling(Record):
    """Connected-component labels of a graph."""

    __slots__ = ("labels", "count")

    def __init__(self, labels: list[int], count: int):
        self.labels = labels
        self.count = count

    def groups(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.count)]
        for v, c in enumerate(self.labels):
            out[c].append(v)
        return out


def connected_components(g: Graph) -> ComponentLabeling:
    """Label connected components, numbered by their smallest vertex."""
    labels = [-1] * g.n
    count = 0
    for start in range(g.n):
        if labels[start] != -1:
            continue
        labels[start] = count
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w, _ in g.adj[v]:
                if labels[w] == -1:
                    labels[w] = count
                    queue.append(w)
        count += 1
    return ComponentLabeling(labels, count)


def reachable_within(sub: Subgraph, start: int, stop_at: int | None = None) -> set[int]:
    """Vertices reachable from vertex `start` in the subgraph.

    With `stop_at`, bisection's test of whether an edge removal split its
    endpoints, the search runs from both ends (Pohl 1971): each step grows
    the smaller frontier by one level.  It stops when the two searches
    meet, returning a partial set that holds both ends, or when one side
    runs out of vertices, returning that side: the whole component of
    whichever end it holds, and only that end.  The other component is
    never walked.
    """
    nbrs = sub.nbrs
    if stop_at is None:
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    seen = ({start}, {stop_at})
    fronts = [[start], [stop_at]]
    while True:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        mine, other = seen[side], seen[1 - side]
        grown = []
        for v in fronts[side]:
            for w in nbrs[v]:
                if w not in mine:
                    if w in other:
                        seen[0].add(stop_at)
                        return seen[0]
                    mine.add(w)
                    grown.append(w)
        if not grown:
            return mine
        fronts[side] = grown


# ---------------------------------------------------------------------------
# Loading


def _read_text(path) -> str:
    """The file's text, without a leading byte order mark; a file that
    cannot be opened or is not UTF-8 is a GraphLoadError.  The mark is cut
    off the text rather than decoded as `utf-8-sig`, whose codec module is
    one more import for every fresh process that loads a graph."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphLoadError(f"cannot read {path}: {exc}") from exc


def _loaded_graph(path, labels: list[str], pairs, warnings: LoadWarnings) -> Graph:
    """The loaded `Graph`; a label that breaks the label rule, or a file that
    leaves no edge, is a GraphLoadError."""
    try:
        g = Graph(len(labels), pairs, labels, warnings)
    except ValueError as exc:
        raise GraphLoadError(f"{path}: {exc}") from None
    if g.m == 0:
        raise GraphLoadError(f"{path}: no edges left after canonicalization")
    return g


def load_edge_list(path) -> Graph:
    """Load a graph from a text edge list.

    One edge per line: two vertex tokens separated by commas and/or
    whitespace, optionally followed by a numeric weight; lines starting
    with `#` are ignored.  Tokens become vertex labels; ids are assigned in
    first-appearance order.  Weights, self-loops and duplicate edges are
    dropped and counted in `Graph.warnings`.  A label starting with `#`
    (`a #c`) raises `GraphLoadError`.
    """
    index: dict[str, int] = {}
    labels: list[str] = []
    pairs: list[tuple[int, int]] = []
    weights = 0
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.replace(",", " ").split()
        if len(tokens) == 3:
            try:
                float(tokens[2])
            except ValueError:
                raise GraphLoadError(
                    f"{path}:{lineno}: third token {tokens[2]!r} is not a numeric weight"
                ) from None
            weights += 1
        elif len(tokens) != 2:
            raise GraphLoadError(
                f"{path}:{lineno}: expected 2 vertex tokens and an optional weight,"
                f" got {len(tokens)} tokens"
            )
        ids = []
        for tok in tokens[:2]:
            if tok not in index:
                index[tok] = len(labels)
                labels.append(tok)
            ids.append(index[tok])
        pairs.append((ids[0], ids[1]))

    return _loaded_graph(path, labels, pairs, LoadWarnings(weights=weights))


# A token is a closed string, a bracket, or a bare run of anything else; a
# lone `"` with no closing one starts a bare token.
_GML_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]]+')
# GML's integer grammar: an optional sign, then ASCII decimal digits.
_GML_INT = re.compile(r"[+-]?[0-9]+")
# Graph-level keys read and ignored; `node` and `edge` open records.
_GML_GRAPH_KEYS = {"directed", "id", "label", "comment"}


def _gml_int(value: str, path) -> int | None:
    """The integer a bare value token spells; None for anything else.  One
    with more digits than `int` reads (4300 by default) is a
    GraphLoadError that names the file at `path`."""
    if not _GML_INT.fullmatch(value):
        return None
    try:
        return int(value)
    except ValueError:
        raise GraphLoadError(
            f"{path}: malformed GML: integer of {len(value)} digits is too long") from None


def load_gml(path) -> Graph:
    """Load a graph from a GML file.

    The accepted subset is `graph [ node [ id N label "..." ] edge [ source
    N target N ] ]`, read in one pass over the tokens after the first
    `graph` key; text before it and after its block is ignored.

    - `id`, `source` and `target` are integers: an optional sign, then
      ASCII digits (`03` is 3, `+1` is 1; `1_0`, `0.0` and `"0"` are not).
    - A label is kept as written: a quoted one without its quotes, a bare
      one with its token text (`007` stays `"007"`).  A node without one
      gets its id as text.  The label rule comes from `Graph`: a tab, a
      line break or a leading `#` raises `GraphLoadError`.
    - Unknown keys, at graph level or in a node or edge, are named in
      `Graph.warnings.unknown_keys` in first-seen order.  A nested block is
      skipped at any depth, its keys unread.
    - `directed` is ignored: edges are symmetrized, and self-loops and
      duplicates are dropped and counted in `Graph.warnings`.

    A fault raises `GraphLoadError`: an unterminated string or block, a
    key with no value (a `]` is none), an integer too long to read, a
    `node` or `edge` that is not a block, a label that is a block, a node
    without an integer id, a duplicate id, an edge without an integer
    source and target.  These are found in file order,
    so a file with several faults reports its first.  The checks that need
    the whole file come after: an edge to an unknown node id, the label
    rule, and a graph with no edge left.
    """
    tokens = _GML_TOKEN.findall(_read_text(path))
    try:
        start = tokens.index("graph") + 1
    except ValueError:
        raise GraphLoadError(f"{path}: no 'graph' block found") from None
    if start >= len(tokens) or tokens[start] != "[":
        raise GraphLoadError(f"{path}: 'graph' is not followed by a block")

    index: dict[int, int] = {}
    labels: list[str] = []
    ends: list[tuple[int, int]] = []
    unknown: dict[str, None] = {}  # a dict keeps first-seen order
    record = None  # "node" or "edge" while its block is open at depth 1
    depth = 0  # blocks open inside the graph block
    it = iter(tokens[start + 1:])
    for key in it:
        if key == "]":
            if not depth:
                break
            depth -= 1
            if depth or record is None:
                continue
            if record == "node":
                if node_id is None:
                    raise GraphLoadError(f"{path}: node without an integer id")
                if node_id in index:
                    raise GraphLoadError(f"{path}: duplicate node id {node_id}")
                index[node_id] = len(labels)
                labels.append(label if label is not None else str(node_id))
            else:
                if source is None or target is None:
                    raise GraphLoadError(f"{path}: edge without integer source/target")
                ends.append((source, target))
            record = None
            continue
        value = next(it, "]")  # the end of the tokens, like a `]`, is no value
        if value == "]":
            raise GraphLoadError(f"{path}: malformed GML: key {key!r} has no value")
        if value[0] == '"' and (len(value) == 1 or value[-1] != '"'):
            raise GraphLoadError(f"{path}: malformed GML: unterminated string {value!r}")
        if not depth:
            if key == "node" or key == "edge":
                if value != "[":
                    raise GraphLoadError(f"{path}: {key!r} is not a block")
                record = key
                node_id = label = source = target = None
            elif key not in _GML_GRAPH_KEYS:
                unknown[key] = None
        elif depth == 1 and record == "node":
            if key == "id":
                node_id = _gml_int(value, path)
            elif key == "label":
                if value == "[":
                    raise GraphLoadError(f"{path}: node label is a block")
                label = value[1:-1] if value[0] == '"' else value
            else:
                unknown[key] = None
        elif depth == 1 and record == "edge":
            if key == "source":
                source = _gml_int(value, path)
            elif key == "target":
                target = _gml_int(value, path)
            else:
                unknown[key] = None
        if value == "[":
            depth += 1
    else:
        raise GraphLoadError(f"{path}: malformed GML: unterminated block")

    pairs = []
    for source, target in ends:
        for ref in (source, target):
            if ref not in index:
                raise GraphLoadError(f"{path}: edge references unknown node id {ref}")
        pairs.append((index[source], index[target]))
    return _loaded_graph(path, labels, pairs, LoadWarnings(unknown_keys=tuple(unknown)))


# ---------------------------------------------------------------------------
# Writing


def write_edge_list(g: Graph, path) -> None:
    """Write one `label<TAB>label` line per edge, in edge-id order.

    Raises ValueError if a label would not read back as one token: one that
    is empty or holds whitespace or a comma.  `Graph` already refuses a
    label that breaks the label rule.
    """
    for label in g.labels:
        if len(label.replace(",", " ").split()) != 1:
            raise ValueError(f"label {label!r} cannot be written to an edge list")
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edges:
            fh.write(f"{g.labels[u]}\t{g.labels[v]}\n")


def write_gml(g: Graph, path) -> None:
    """Write the graph in the GML subset understood by `load_gml`.

    Raises ValueError if a label would not read back: one that holds a
    `"`, which GML strings cannot escape.  `Graph` already refuses a label
    that breaks the label rule, which `load_gml` enforces.
    """
    for label in g.labels:
        if '"' in label:
            raise ValueError(f"label {label!r} cannot be written to GML")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("graph [\n")
        for v, label in enumerate(g.labels):
            fh.write(f'  node [\n    id {v}\n    label "{label}"\n  ]\n')
        for u, v in g.edges:
            fh.write(f"  edge [\n    source {u}\n    target {v}\n  ]\n")
        fh.write("]\n")
