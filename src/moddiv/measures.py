"""Per-edge removal scores: shortest-path betweenness and cycle-based
clustering coefficients.

All scoring works on a `Subgraph`: the community currently being bisected,
less the edges removed from it so far.  Clustering scores use an explicit
+infinity sentinel for edges whose endpoint degrees make the denominator
zero; the sentinel orders above every finite value, so lowest-score
selection can never pick such an edge while a finite-scored edge remains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, heapreplace

from .graph import Graph, Subgraph

BETWEENNESS = "betweenness"
CLUSTERING_G3 = "clustering_g3"
CLUSTERING_G4 = "clustering_g4"

CLUSTERING_KINDS = (CLUSTERING_G3, CLUSTERING_G4)


@dataclass(frozen=True)
class EdgeScoreTable:
    """Scores for every edge of one subgraph.

    `scores` maps edge id to a finite non-negative value, or `math.inf` for
    clustering kinds when the denominator degenerates.  Clustering tables
    also keep `heap`, a min-heap of `(score, edge id)` entries holding
    `scores[eid]` of every edge of `scores`, plus stale entries of changed
    or removed edges that the pick discards lazily, at most as many as the
    live ones.  Clustering tables also keep `cycles`, the count of every
    edge's triangles (g3, its common neighbours) or 4-cycles (g4), so
    rescoring can adjust the counts instead of recounting them.

    Betweenness and g4 scores are exact.  A g3 score can only fall when
    the edge loses a triangle, and rescoring updates exactly those edges;
    every other change lowers a degree and so can only raise the score.
    A g3 table therefore keeps `scores[eid]` (and its heap key) as a lower
    bound of the edge's score: exact when the table is built, after the
    edge lost a triangle and after `rescore_around` touched it, and at
    most the true score otherwise.  It keeps references to the subgraph's
    rows (`nbrs`) and the graph's `edges`, from which `score` and the pick
    compute the exact score of an edge on demand.
    """

    kind: str
    scores: dict[int, float]
    heap: list[tuple[float, int]] | None = field(default=None, repr=False, compare=False)
    cycles: dict[int, int] | None = field(default=None, repr=False, compare=False)
    nbrs: dict[int, dict[int, int]] | None = field(default=None, repr=False, compare=False)
    edges: list[tuple[int, int]] | None = field(default=None, repr=False, compare=False)

    def score(self, eid: int) -> float:
        """Exact score of the live edge `eid`."""
        if self.nbrs is None:
            return self.scores[eid]
        u, v = self.edges[eid]
        return _g3_score(self.nbrs, u, v, self.cycles[eid])

    def removal_candidate(self) -> int:
        """Edge id the divisive step should remove next.

        Clustering kinds remove the lowest score, betweenness the highest;
        ties break toward the smallest edge id.  A g3 pick recomputes the
        score of the top heap entry; while that is above its key, the entry
        goes back with the exact score and the next top is tried.  A top
        entry whose key is exact is the true minimum, since every other key
        is at most its edge's score, so the picked edge's `scores[eid]` is
        exact when this returns.
        """
        scores = self.scores
        if not scores:
            raise ValueError("score table is empty")
        heap = self.heap
        if heap is None:
            best = max(scores.values())
            return min(eid for eid, s in scores.items() if s == best)
        nbrs, edges, cycles = self.nbrs, self.edges, self.cycles
        # Tuple order is the tie-break: lowest score, then smallest edge id.
        while True:
            key, eid = heap[0]
            if scores.get(eid) != key:
                heappop(heap)  # the edge is gone, or has a newer key
                continue
            if nbrs is None:
                return eid
            u, v = edges[eid]
            s = _g3_score(nbrs, u, v, cycles[eid])
            if s == key:
                return eid
            scores[eid] = s
            heapreplace(heap, (s, eid))

    def forget(self, eids) -> None:
        """Drop the scores of edges gone from the subgraph; their heap
        entries go stale."""
        for eid in eids:
            del self.scores[eid]
            if self.cycles is not None:
                del self.cycles[eid]

    def to_tsv(self, graph) -> str:
        """TSV dump (label, label, score) of the exact scores, sorted by
        score then edge id."""
        exact = {eid: self.score(eid) for eid in self.scores}
        lines = ["# u\tv\tscore"]
        for eid in sorted(exact, key=lambda e: (exact[e], e)):
            lu, lv = graph.edge_label_pair(eid)
            s = exact[eid]
            text = "inf" if math.isinf(s) else repr(s)
            lines.append(f"{lu}\t{lv}\t{text}")
        return "\n".join(lines) + "\n"


def edge_betweenness(g: Graph, sub: Subgraph) -> EdgeScoreTable:
    """Shortest-path betweenness of every edge of the subgraph.

    For each unordered vertex pair {s, t} inside the subgraph, every edge e
    accumulates the fraction of shortest s-t paths passing through it.
    Single-source breadth-first searches record each vertex's predecessors
    (Brandes 2001), and the dependency back-propagation walks only those;
    each pair is visited from both endpoints, so totals are halved.
    """
    # Dense vertex and edge indices in the subgraph's order, and rows of
    # (neighbour, (self, edge index)) lists: the second item is the
    # predecessor entry the neighbour records, built once instead of once
    # per source.  Sources run and rows are iterated in the subgraph's
    # order, so the float sums accumulate in a fixed order.
    pos = {v: i for i, v in enumerate(sub.nbrs)}
    index: dict[int, int] = {}
    rows = [
        [(pos[w], (i, index.setdefault(eid, len(index)))) for w, eid in row.items()]
        for i, row in enumerate(sub.nbrs.values())
    ]
    eids = list(index)
    k = len(rows)
    acc = [0.0] * len(eids)
    unseen = [-1] * k

    for src in range(k):
        dist = unseen[:]
        sigma = [0] * k  # exact path counts
        delta = [0.0] * k
        preds: list = [None] * k
        preds[src] = ()
        dist[src] = 0
        sigma[src] = 1
        order = [src]  # the BFS queue: the loop reads the entries it appends
        for v in order:
            dv1 = dist[v] + 1
            sv = sigma[v]
            for w, pred in rows[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = dv1
                    order.append(w)
                    sigma[w] = sv
                    preds[w] = [pred]
                elif dw == dv1:
                    sigma[w] += sv
                    preds[w].append(pred)
        # Each edge gets one addition per source and each delta[v] is summed
        # in reversed BFS order, so the float sums do not depend on the order
        # predecessors are visited in.
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v, e in preds[w]:
                c = sigma[v] * coeff
                acc[e] += c
                delta[v] += c

    return EdgeScoreTable(BETWEENNESS, {eid: a / 2.0 for eid, a in zip(eids, acc)})


def _g3_score(nbrs: dict[int, dict[int, int]], u: int, v: int, triangles: int) -> float:
    """(triangles + 1) over the most triangles the edge u-v could close:
    the smaller endpoint degree less the edge itself."""
    denom = min(len(nbrs[u]), len(nbrs[v])) - 1
    return (triangles + 1) / denom if denom > 0 else math.inf


def _g4_score(nbrs: dict[int, dict[int, int]], u: int, v: int, cycles: int) -> float:
    """(cycles + 1) over the most 4-cycles the edge u-v could close: every
    pairing of distinct non-shared neighbours of u and v; shared neighbours
    close triangles, not 4-cycles, so they cannot be paired with themselves.
    """
    nu, nv = nbrs[u], nbrs[v]
    denom = (len(nu) - 1) * (len(nv) - 1) - len(nu.keys() & nv.keys())
    return (cycles + 1) / denom if denom > 0 else math.inf


def _four_cycles(nbrs: dict[int, dict[int, int]], u: int, v: int) -> int:
    """4-cycles u-v-b-a through the edge u-v: pairs a ~ b with a in N(u),
    b in N(v), a != v, b != u and a != b."""
    nv = nbrs[v].keys()
    # b ranges over N(a) & N(v); u is in both for every a, and a is in
    # neither.
    return sum(len(nbrs[a].keys() & nv) for a in nbrs[u] if a != v) - (len(nbrs[u]) - 1)


def edge_clustering_g3(g: Graph, sub: Subgraph) -> EdgeScoreTable:
    """Triangle-based clustering coefficient of every edge of the subgraph.

    score(u, v) = (triangles through the edge + 1) / (min degree - 1), with
    degrees and triangles counted inside the subgraph.
    """
    nbrs = sub.nbrs
    inf = math.inf
    scores: dict[int, float] = {}
    triangles: dict[int, int] = {}
    for i, row in nbrs.items():
        keys = row.keys()
        di = len(row)
        for j, eid in row.items():
            if i < j:
                other = nbrs[j]
                t = triangles[eid] = len(keys & other.keys())
                denom = min(di, len(other)) - 1
                scores[eid] = (t + 1) / denom if denom > 0 else inf
    heap = list(zip(scores.values(), scores))
    heapify(heap)
    return EdgeScoreTable(CLUSTERING_G3, scores, heap, triangles, nbrs, g.edges)


def edge_clustering_g4(g: Graph, sub: Subgraph) -> EdgeScoreTable:
    """4-cycle generalization of the edge clustering coefficient.

    score(u, v) = (4-cycles through the edge + 1) / S, where S is the
    largest number of 4-cycles the endpoint degrees would allow: every
    pairing of distinct non-shared neighbors of u and v.
    """
    nbrs = sub.nbrs
    scores: dict[int, float] = {}
    cycles: dict[int, int] = {}
    for i, row in nbrs.items():
        for j, eid in row.items():
            if i < j:
                f = cycles[eid] = _four_cycles(nbrs, i, j)
                scores[eid] = _g4_score(nbrs, i, j, f)
    heap = list(zip(scores.values(), scores))
    heapify(heap)
    return EdgeScoreTable(CLUSTERING_G4, scores, heap, cycles)


def compute_scores(kind: str, g: Graph, sub: Subgraph) -> EdgeScoreTable:
    """Score every edge of `sub`, a subgraph of `g`, by measure `kind`.

    Every scorer takes the graph and the subgraph; the table is keyed by the
    graph's edge ids.
    """
    if kind == BETWEENNESS:
        return edge_betweenness(g, sub)
    if kind == CLUSTERING_G3:
        return edge_clustering_g3(g, sub)
    if kind == CLUSTERING_G4:
        return edge_clustering_g4(g, sub)
    raise ValueError(f"unknown measure kind: {kind!r}")


def rescore_after_removal(
    prev: EdgeScoreTable, g: Graph, sub: Subgraph, removed_edge: int
) -> EdgeScoreTable:
    """Score table after `removed_edge` was deleted from `sub`.

    Betweenness is recomputed outright into a new table.  Clustering tables
    are updated in place and returned, from their kept counts.  For
    4-cycles, every cycle u-v-b-a the removal ends (a in N(u), b in N(v),
    a ~ b) takes one from the counts of (u, a), (v, b) and (a, b); those
    edges and every edge at u and v are rescored, so g4 scores stay equal
    to a full recomputation.  A g3 table rescores only the edges (u, x)
    and (v, x) of each common neighbour x of u and v, which lose the
    triangle they shared with the removed edge: theirs are the only g3
    scores the removal can lower.  The other edges at u and v keep their
    keys, now lower bounds that the pick raises when it meets them; no
    edge is rescored when the removed edge closed no triangle.  Every
    changed score is pushed on the heap; the entry it replaces goes stale.
    """
    if prev.kind == BETWEENNESS:
        return edge_betweenness(g, sub)

    u, v = g.edges[removed_edge]
    scores, heap, cycles = prev.scores, prev.heap, prev.cycles
    lost = cycles[removed_edge]
    prev.forget((removed_edge,))
    nbrs = sub.nbrs
    if prev.kind == CLUSTERING_G4:
        nu, nv = nbrs[u], nbrs[v]
        nv_keys = nv.keys()
        far: dict[int, tuple[int, int]] = {}
        for a, ea in nu.items():
            na = nbrs[a]
            ended = na.keys() & nv_keys
            if ended:
                cycles[ea] -= len(ended)
                for b in ended:
                    cycles[nv[b]] -= 1
                    eab = na[b]
                    cycles[eab] -= 1
                    far[eab] = (a, b)
        for x in (u, v):
            for y, eid in nbrs[x].items():
                far[eid] = (x, y)
        for eid, (x, y) in far.items():
            s = _g4_score(nbrs, x, y, cycles[eid])
            if s != scores[eid]:
                scores[eid] = s
                heappush(heap, (s, eid))
        _compact(prev)
        return prev

    if lost:
        nu, nv = nbrs[u], nbrs[v]
        for x in nu.keys() & nv.keys():
            for a, row in ((u, nu), (v, nv)):
                eid = row[x]
                t = cycles[eid] = cycles[eid] - 1
                s = _g3_score(nbrs, a, x, t)
                if s != scores[eid]:
                    scores[eid] = s
                    heappush(heap, (s, eid))
    _compact(prev)
    return prev


def rescore_around(table: EdgeScoreTable, sub: Subgraph, vertices) -> None:
    """Bring a clustering table in line with a full recomputation after
    edges were added to or removed from `sub` at the live `vertices`.

    This is the general form of `rescore_after_removal`: it rescores every
    edge at `vertices`, plus (for 4-cycles) every edge at their neighbours,
    recounting the triangles or 4-cycles of each from the neighbour sets.
    A dropped vertex passes its former neighbours, not itself; an inserted
    one passes itself and its neighbours.  The rescored edges get exact
    keys; the degrees and triangles of every other g3 edge are unchanged,
    so its key stays a lower bound of its score.
    """
    nbrs = sub.nbrs
    scores, heap, cycles = table.scores, table.heap, table.cycles
    g4 = table.kind == CLUSTERING_G4
    touched = set(vertices)
    if g4:
        for x in tuple(touched):
            touched.update(nbrs[x])
    affected = {eid: (x, y) for x in touched for y, eid in nbrs[x].items()}
    for eid, (x, y) in affected.items():
        if g4:
            f = cycles[eid] = _four_cycles(nbrs, x, y)
            s = _g4_score(nbrs, x, y, f)
        else:
            t = cycles[eid] = len(nbrs[x].keys() & nbrs[y].keys())
            s = _g3_score(nbrs, x, y, t)
        if s != scores.get(eid):
            scores[eid] = s
            heappush(heap, (s, eid))
    _compact(table)


def _compact(table: EdgeScoreTable) -> None:
    """Rebuild the heap from the live keys (`scores`, lower bounds in a g3
    table) once stale entries outnumber live ones, so it never holds more
    than twice the live scores."""
    heap, scores = table.heap, table.scores
    if len(heap) > 2 * len(scores):
        heap[:] = zip(scores.values(), scores)
        heapify(heap)
