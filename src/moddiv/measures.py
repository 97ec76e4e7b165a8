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
from heapq import heapify, heappop, heappush, heapreplace

from .graph import Graph, Subgraph

BETWEENNESS = "betweenness"
CLUSTERING_G3 = "g3"
CLUSTERING_G4 = "g4"

CLUSTERING_KINDS = (CLUSTERING_G3, CLUSTERING_G4)


class EdgeScoreTable:
    """Scores for every edge of one subgraph.

    `scores` maps edge id to a finite non-negative value, or `math.inf` for
    clustering kinds when the denominator degenerates.  Clustering tables
    also keep `heap`, a min-heap of `(score, edge id)` entries holding
    `scores[eid]` of every edge of `scores`, plus stale entries of changed
    or removed edges that the pick discards lazily, at most as many as the
    live ones.  Clustering tables also keep `cycles`, the count of every
    edge's triangles (g3, its common neighbours) or 4-cycles (g4), which
    `lose_cycles` and `add_cycles` keep exact through every edge removed
    or added, and references to the subgraph's rows (`nbrs`) and the
    graph's `edges`, from which `score` computes the exact score of an
    edge.

    Betweenness scores are exact.  Every clustering key (`scores[eid]` and
    its heap entry) is a lower bound of its edge's score, exact when the
    table is built; the pick raises a key it meets on top of the heap to
    the exact score, so no pick depends on when a key was lowered.  A
    score can only fall when its edge loses a cycle, and `lose_cycles`
    rescores that edge at once, or when an endpoint gains a degree, and
    `lower_keys` lowers the keys at that endpoint.  When x loses the
    neighbour z, an edge x-y that keeps its count can only score higher:
    the g3 denominator `min(k_x, k_y) - 1` cannot grow, and the g4 one,
    `(k_x - 1)(k_y - 1) - |N(x) & N(y)|`, changes by
    `-(k_y - 1) + [y ~ z] <= 0`.  A count that rises only raises its
    edge's score.
    """

    __slots__ = ("kind", "scores", "heap", "cycles", "nbrs", "edges")

    def __init__(
        self,
        kind: str,
        scores: dict[int, float],
        heap: list[tuple[float, int]] | None = None,
        cycles: dict[int, int] | None = None,
        nbrs: dict[int, dict[int, int]] | None = None,
        edges: list[tuple[int, int]] | None = None,
    ):
        self.kind = kind
        self.scores = scores
        self.heap = heap
        self.cycles = cycles
        self.nbrs = nbrs
        self.edges = edges

    def score(self, eid: int) -> float:
        """Exact score of the live edge `eid`."""
        if self.nbrs is None:
            return self.scores[eid]
        u, v = self.edges[eid]
        score = _g3_score if self.kind == CLUSTERING_G3 else _g4_score
        return score(self.nbrs, u, v, self.cycles[eid])

    def removal_candidate(self) -> int:
        """Edge id the divisive step should remove next.

        Clustering kinds remove the lowest score, betweenness the highest;
        ties break toward the smallest edge id.  A clustering pick
        recomputes the score of the top heap entry; while that is above its
        key, the entry goes back with the exact score and the next top is
        tried.  A top entry whose key is exact is the true minimum, since
        every other key is at most its edge's score, so the picked edge's
        `scores[eid]` is exact when this returns.  A g3 score is computed
        inline, with `_g3_score`'s expression; g4 calls `_g4_score`.
        """
        scores = self.scores
        if not scores:
            raise ValueError("score table is empty")
        heap = self.heap
        if heap is None:
            best = max(scores.values())
            return min(eid for eid, s in scores.items() if s == best)
        nbrs, edges, cycles = self.nbrs, self.edges, self.cycles
        g3 = self.kind == CLUSTERING_G3
        # Tuple order is the tie-break: lowest score, then smallest edge id.
        while True:
            key, eid = heap[0]
            if scores.get(eid) != key:
                heappop(heap)  # the edge is gone, or has a newer key
                continue
            u, v = edges[eid]
            if g3:  # _g3_score, inline
                du, dv = len(nbrs[u]), len(nbrs[v])
                d = du if du < dv else dv
                s = (cycles[eid] + 1) / (d - 1) if d > 1 else math.inf
            else:
                s = _g4_score(nbrs, u, v, cycles[eid])
            if s == key:
                return eid
            scores[eid] = s
            heapreplace(heap, (s, eid))

    def forget(self, eids) -> None:
        """Drop the scores and counts of edges gone from a clustering
        table's subgraph; their heap entries go stale."""
        for eid in eids:
            del self.scores[eid]
            del self.cycles[eid]

    def split_off(self, nbrs: dict[int, dict[int, int]]) -> EdgeScoreTable:
        """Move the scores and counts of the edges in the rows `nbrs`, a
        subgraph `Subgraph.split_off` carved out of this table's, into a
        new table over those rows; their heap entries here go stale."""
        own_scores, own_cycles = self.scores, self.cycles
        scores: dict[int, float] = {}
        cycles: dict[int, int] = {}
        for v, row in nbrs.items():
            for w, eid in row.items():
                if v < w:
                    scores[eid] = own_scores.pop(eid)
                    cycles[eid] = own_cycles.pop(eid)
        heap = list(zip(scores.values(), scores))
        heapify(heap)
        _compact(self)
        return EdgeScoreTable(self.kind, scores, heap, cycles, nbrs, self.edges)

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
    the smaller endpoint degree less the edge itself.

    This is the one definition, which `EdgeScoreTable.score` calls.  The
    hot paths compute the same expression inline, on the same integers:
    `edge_clustering_g3`, `EdgeScoreTable.removal_candidate`,
    `lose_cycles` and `lower_keys`.
    """
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
    return EdgeScoreTable(CLUSTERING_G4, scores, heap, cycles, nbrs, g.edges)


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

    Betweenness is recomputed outright into a new table.  A clustering
    table is updated in place by `lose_cycles` and returned.
    """
    if prev.kind == BETWEENNESS:
        return edge_betweenness(g, sub)
    lose_cycles(prev, removed_edge)
    return prev


def lose_cycles(table: EdgeScoreTable, eid: int) -> None:
    """Bring a clustering table up to date after the edge `eid`, u-v, left
    its subgraph's rows: forget it, take one from the kept count of every
    edge per triangle (g3) or 4-cycle (g4) it shared with u-v, and rescore
    each such edge once, after all its shifts, pushing a changed score on
    the heap.  A triangle u-v-x shifts (u, x) and (v, x), in one pass over
    the common neighbours with `_g3_score`'s expression inline; a 4-cycle
    u-v-b-a (a in N(u), b in N(v), a ~ b) shifts (u, a), (v, b) and
    (a, b).  The other edges at u and v lost a degree and kept their
    counts, so their keys stay lower bounds.
    """
    nbrs, scores, heap, cycles = table.nbrs, table.scores, table.heap, table.cycles
    closed = cycles[eid]
    table.forget((eid,))
    u, v = table.edges[eid]
    nu, nv = nbrs[u], nbrs[v]
    if closed and table.kind == CLUSTERING_G3:
        inf = math.inf
        du, dv = len(nu), len(nv)
        for x in nu.keys() & nv.keys():
            dx = len(nbrs[x])
            eid = nu[x]
            t = cycles[eid] = cycles[eid] - 1
            d = du if du < dx else dx
            s = (t + 1) / (d - 1) if d > 1 else inf
            if s != scores[eid]:
                scores[eid] = s
                heappush(heap, (s, eid))
            eid = nv[x]
            t = cycles[eid] = cycles[eid] - 1
            d = dv if dv < dx else dx
            s = (t + 1) / (d - 1) if d > 1 else inf
            if s != scores[eid]:
                scores[eid] = s
                heappush(heap, (s, eid))
    elif closed:
        nv_keys = nv.keys()
        shifted: dict[int, tuple[int, int]] = {}  # edge id: its ends
        for a, ea in nu.items():
            na = nbrs[a]
            common = na.keys() & nv_keys
            if common:
                cycles[ea] -= len(common)
                shifted[ea] = (u, a)
                for b in common:
                    eid = nv[b]
                    cycles[eid] -= 1
                    shifted[eid] = (v, b)
                    eid = na[b]
                    cycles[eid] -= 1
                    shifted[eid] = (a, b)
        for eid, (x, y) in shifted.items():
            s = _g4_score(nbrs, x, y, cycles[eid])
            if s != scores[eid]:
                scores[eid] = s
                heappush(heap, (s, eid))
    _compact(table)


def add_cycles(table: EdgeScoreTable, eid: int) -> int:
    """Count the cycles the edge `eid` closes before it joins a clustering
    table's subgraph rows: add one to the kept count of every edge that
    shares a triangle (g3) or 4-cycle (g4) with it, per shared cycle, and
    set and return its own count.  No key changes: a count that rises only
    raises its edge's score.  The new edge gets its key, and the edges at
    its ends have theirs lowered, from `lower_keys`.
    """
    nbrs, cycles = table.nbrs, table.cycles
    u, v = table.edges[eid]
    nu, nv = nbrs[u], nbrs[v]
    if table.kind == CLUSTERING_G3:
        common = nu.keys() & nv.keys()
        for x in common:
            cycles[nu[x]] += 1
            cycles[nv[x]] += 1
        found = len(common)
    else:
        found = 0
        nv_keys = nv.keys()
        for a, ea in nu.items():
            na = nbrs[a]
            common = na.keys() & nv_keys
            if common:
                found += len(common)
                cycles[ea] += len(common)
                for b in common:
                    cycles[nv[b]] += 1
                    cycles[na[b]] += 1
    cycles[eid] = found
    return found


def lower_keys(table: EdgeScoreTable, rose) -> None:
    """Lower the key of every edge at a vertex of `rose`, whose degree rose,
    to its exact score where the key is above it, and give a new edge its
    first key; every changed key is pushed on the heap.  Every vertex of
    `rose` is live.

    Only these keys can be too high after edges were added: when x gains a
    neighbour, only the edges at x see a denominator grow, and a count that
    rose only raises its edge's score.  A g3 score is computed inline, with
    `_g3_score`'s expression; g4 calls `_g4_score`.
    """
    nbrs, scores, heap, cycles = table.nbrs, table.scores, table.heap, table.cycles
    inf = math.inf
    g3 = table.kind == CLUSTERING_G3
    for x in rose:
        row = nbrs[x]
        dx = len(row)
        for y, eid in row.items():
            if g3:
                dy = len(nbrs[y])
                d = dx if dx < dy else dy
                s = (cycles[eid] + 1) / (d - 1) if d > 1 else inf
            else:
                s = _g4_score(nbrs, x, y, cycles[eid])
            key = scores.get(eid)
            if key is None or s < key:
                scores[eid] = s
                heappush(heap, (s, eid))
    _compact(table)


def _compact(table: EdgeScoreTable) -> None:
    """Rebuild the heap from the live keys (`scores`, lower bounds of the
    exact scores) once stale entries outnumber live ones, so it never
    holds more than twice the live scores."""
    heap, scores = table.heap, table.scores
    if len(heap) > 2 * len(scores):
        heap[:] = zip(scores.values(), scores)
        heapify(heap)
