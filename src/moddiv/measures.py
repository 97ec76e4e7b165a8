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
from collections import deque
from dataclasses import dataclass

from .graph import Graph, Subgraph

BETWEENNESS = "betweenness"
CLUSTERING_G3 = "clustering_g3"
CLUSTERING_G4 = "clustering_g4"

MEASURE_KINDS = (BETWEENNESS, CLUSTERING_G3, CLUSTERING_G4)
CLUSTERING_KINDS = (CLUSTERING_G3, CLUSTERING_G4)


@dataclass(frozen=True)
class EdgeScoreTable:
    """Scores for every edge of one subgraph.

    `scores` maps edge id to a finite non-negative value, or `math.inf` for
    clustering kinds when the denominator degenerates.
    """

    kind: str
    scores: dict[int, float]

    def removal_candidate(self) -> int:
        """Edge id the divisive step should remove next.

        Clustering kinds remove the lowest score, betweenness the highest;
        ties break toward the smallest edge id.
        """
        if not self.scores:
            raise ValueError("score table is empty")
        scores = self.scores
        best = max(scores.values()) if self.kind == BETWEENNESS else min(scores.values())
        return min(eid for eid, s in scores.items() if s == best)

    def to_tsv(self, graph) -> str:
        """TSV dump (label, label, score) sorted by score then edge id."""
        lines = ["# u\tv\tscore"]
        for eid in sorted(self.scores, key=lambda e: (self.scores[e], e)):
            lu, lv = graph.edge_label_pair(eid)
            s = self.scores[eid]
            text = "inf" if math.isinf(s) else repr(s)
            lines.append(f"{lu}\t{lv}\t{text}")
        return "\n".join(lines) + "\n"


def edge_betweenness(g: Graph, sub: Subgraph) -> EdgeScoreTable:
    """Shortest-path betweenness of every edge of the subgraph.

    For each unordered vertex pair {s, t} inside the subgraph, every edge e
    accumulates the fraction of shortest s-t paths passing through it.
    Single-source breadth-first searches with dependency back-propagation;
    each pair is visited from both endpoints, so totals are halved.
    """
    # One list snapshot of the rows per call: iterating lists is faster than
    # iterating the dicts, and keeps their ascending order, so the float
    # sums accumulate in a fixed order.
    rows = [list(row.items()) for row in sub.nbrs]
    k = len(rows)
    scores = {eid: 0.0 for i, row in enumerate(rows) for j, eid in row if i < j}

    dist = [0] * k
    sigma = [0.0] * k
    preds: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    delta = [0.0] * k

    for src in range(k):
        for i in range(k):
            dist[i] = -1
            sigma[i] = 0.0
            preds[i].clear()
            delta[i] = 0.0
        dist[src] = 0
        sigma[src] = 1.0
        order: list[int] = []
        queue = deque([src])
        while queue:
            v = queue.popleft()
            order.append(v)
            dv = dist[v]
            sv = sigma[v]
            for w, eid in rows[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sv
                    preds[w].append((v, eid))
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v, eid in preds[w]:
                c = sigma[v] * coeff
                scores[eid] += c
                delta[v] += c

    for eid in scores:
        scores[eid] /= 2.0
    return EdgeScoreTable(BETWEENNESS, scores)


def _triangle_score(nbrs: list[dict[int, int]], u: int, v: int) -> float:
    nu, nv = nbrs[u], nbrs[v]
    shared = len(nu.keys() & nv.keys())
    denom = min(len(nu), len(nv)) - 1
    if denom <= 0:
        return math.inf
    return (shared + 1) / denom


def _four_cycle_score(nbrs: list[dict[int, int]], u: int, v: int) -> float:
    nu, nv = nbrs[u], nbrs[v]
    shared = len(nu.keys() & nv.keys())
    # Maximum possible distinct-endpoint pairings; shared neighbors close
    # triangles, not 4-cycles, so they cannot be paired with themselves.
    denom = (len(nu) - 1) * (len(nv) - 1) - shared
    if denom <= 0:
        return math.inf
    cycles = 0
    for a in nu:
        if a == v:
            continue
        na = nbrs[a]
        for b in nv:
            if b != u and b != a and b in na:
                cycles += 1
    return (cycles + 1) / denom


def _score_every_edge(kind: str, sub: Subgraph, scorer) -> EdgeScoreTable:
    nbrs = sub.nbrs
    scores: dict[int, float] = {}
    for i, row in enumerate(nbrs):
        for j, eid in row.items():
            if i < j:
                scores[eid] = scorer(nbrs, i, j)
    return EdgeScoreTable(kind, scores)


def edge_clustering_g3(g: Graph, sub: Subgraph) -> EdgeScoreTable:
    """Triangle-based clustering coefficient of every edge of the subgraph.

    score(u, v) = (triangles through the edge + 1) / (min degree - 1), with
    degrees and triangles counted inside the subgraph.
    """
    return _score_every_edge(CLUSTERING_G3, sub, _triangle_score)


def edge_clustering_g4(g: Graph, sub: Subgraph) -> EdgeScoreTable:
    """4-cycle generalization of the edge clustering coefficient.

    score(u, v) = (4-cycles through the edge + 1) / S, where S is the
    largest number of 4-cycles the endpoint degrees would allow: every
    pairing of distinct non-shared neighbors of u and v.
    """
    return _score_every_edge(CLUSTERING_G4, sub, _four_cycle_score)


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
    """Score table after `removed_edge` was deleted from `sub`, equal to a
    full recomputation.

    Betweenness is recomputed outright into a new table.  Clustering tables
    are updated in place and returned: only edges whose cycle counts or
    endpoint degrees could have changed are rescored, namely edges incident
    to the removed edge's endpoints, plus (for 4-cycles) edges incident to
    their remaining neighbors.
    """
    if prev.kind == BETWEENNESS:
        return edge_betweenness(g, sub)

    nbrs = sub.nbrs
    u, v = g.edges[removed_edge]
    i, j = sub.local[u], sub.local[v]
    touched = {i, j}
    if prev.kind == CLUSTERING_G4:
        touched.update(nbrs[i])
        touched.update(nbrs[j])

    affected = {eid: (x, y) for x in touched for y, eid in nbrs[x].items()}
    scorer = _triangle_score if prev.kind == CLUSTERING_G3 else _four_cycle_score
    scores = prev.scores
    del scores[removed_edge]
    for eid, (x, y) in affected.items():
        scores[eid] = scorer(nbrs, x, y)
    return prev
