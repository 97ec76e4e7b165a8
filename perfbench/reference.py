"""A fixed reference workload, timed beside every operation.

On a shared host the machine's speed swings by tens of percent within
minutes, so wall times from runs made minutes apart do not compare.  The
reference does the kinds of work the engine does, in the benchmark's own
code, on fixed graphs: one divisive split by lowest triangle score (neighbour
sets, a copied score dict, a sorted scan, a breadth-first split test) and
Brandes path counting from a fixed set of sources.  It never touches moddiv,
so a change to the program leaves it alone.  Timed between operations, it
slows down and speeds up with the machine, and the ratio of an operation's
time to the reference times around it stays steady where the wall time
does not.
"""

from __future__ import annotations

import gc
import random
from collections import deque
from time import perf_counter

import gen


def _adjacency(n: int, edges) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return adj


_SPLIT_N, _SPLIT_EDGES, _ = gen.planted_partition(random.Random("reference/split"), 90, 3, 8.7, 0.9)
_SPLIT_ADJ = _adjacency(_SPLIT_N, _SPLIT_EDGES)
_PATHS_N, _PATHS_EDGES, _ = gen.planted_partition(random.Random("reference/paths"), 300, 6, 8.0, 1.0)
_PATHS_ADJ = _adjacency(_PATHS_N, _PATHS_EDGES)


def _score(sets, u: int, v: int) -> float:
    d = min(len(sets[u]), len(sets[v])) - 1
    return (len(sets[u] & sets[v]) + 1) / d if d > 0 else float("inf")


def _split() -> None:
    removed: set[int] = set()

    def neighbours(v):
        for w, eid in _SPLIT_ADJ[v]:
            if eid not in removed:
                yield w, eid

    sets = {v: {w for w, _ in neighbours(v)} for v in range(_SPLIT_N)}
    scores = {eid: _score(sets, u, v) for eid, (u, v) in enumerate(_SPLIT_EDGES)}
    while scores:
        eid = min(sorted(scores), key=scores.__getitem__)
        removed.add(eid)
        u, v = _SPLIT_EDGES[eid]
        sets[u].discard(v)
        sets[v].discard(u)
        scores = dict(scores)
        del scores[eid]
        for x in (u, v):
            for _, e in neighbours(x):
                scores[e] = _score(sets, *_SPLIT_EDGES[e])
        seen = {u}
        queue = deque([u])
        while queue:
            for w, _ in neighbours(queue.popleft()):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if v not in seen:
            return


def _paths() -> None:
    n = _PATHS_N
    flow: dict[int, float] = {}
    for s in range(0, n, 15):
        dist = [-1] * n
        sigma = [0] * n
        preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w, eid in _PATHS_ADJ[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append((v, eid))
        delta = [0.0] * n
        for w in reversed(order):
            for v, eid in preds[w]:
                c = sigma[v] / sigma[w] * (1.0 + delta[w])
                delta[v] += c
                flow[eid] = flow.get(eid, 0.0) + c


def reference_seconds() -> float:
    # Collect first, so that the garbage the previous operation left behind
    # is not collected, and timed, inside the reference.
    gc.collect()
    start = perf_counter()
    _split()
    _paths()
    return perf_counter() - start
