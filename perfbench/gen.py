"""Seeded, stdlib-only graph generators and a GML writer.

The random generators take a `random.Random` built from the benchmark's
seed argument and nothing else.  Every generator returns `(n, edges,
truth)`: the vertex count, the edge list as `(u, v)` pairs in the order
they are written, and the ground-truth community of every vertex.
"""

from __future__ import annotations

import random


def planted_partition(
    rng: random.Random, n: int, blocks: int, deg_in: float, deg_out: float
) -> tuple[int, list[tuple[int, int]], list[int]]:
    """Equal blocks; each vertex expects `deg_in` edges inside its block and
    `deg_out` edges to other blocks (one Bernoulli draw per vertex pair)."""
    size = n // blocks
    p_in = deg_in / (size - 1)
    p_out = deg_out / (n - size)
    truth = [v // size for v in range(n)]
    edges = []
    draw = rng.random
    for u in range(n):
        bu = truth[u]
        for v in range(u + 1, n):
            if draw() < (p_in if truth[v] == bu else p_out):
                edges.append((u, v))
    return n, edges, truth


def cycle_blocks(
    rng: random.Random, n: int, blocks: int, cycles: int, bridges: int
) -> tuple[int, list[tuple[int, int]], list[int]]:
    """Equal blocks, each the union of `cycles` random Hamiltonian cycles
    (so every block is connected and nearly 2*`cycles`-regular), joined by
    `bridges` random edges between distinct blocks.

    Few triangles or 4-cycles and no low-degree periphery: clustering
    measures separate the blocks poorly, while betweenness has to remove
    many edges before a block falls apart.  Edges are written in shuffled
    order.
    """
    size = n // blocks
    truth = [v // size for v in range(n)]
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []

    def add(u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        if u == v or key in seen:
            return False
        seen.add(key)
        edges.append(key)
        return True

    for b in range(blocks):
        members = list(range(b * size, (b + 1) * size))
        for _ in range(cycles):
            rng.shuffle(members)
            for i in range(size):
                add(members[i], members[(i + 1) % size])
    added = 0
    while added < bridges:
        u, v = rng.randrange(n), rng.randrange(n)
        if truth[u] != truth[v] and add(u, v):
            added += 1
    rng.shuffle(edges)
    return n, edges, truth


def ring_of_cliques(
    cliques: int, clique_size: int
) -> tuple[int, list[tuple[int, int]], list[int]]:
    """`cliques` complete graphs on `clique_size` vertices, clique i joined to
    clique i+1 (mod `cliques`) by one edge.  Structure and edge order are
    fixed; only the vertex labels the caller writes vary with the seed."""
    n = cliques * clique_size
    truth = [v // clique_size for v in range(n)]
    edges = []
    for c in range(cliques):
        base = c * clique_size
        for a in range(clique_size):
            for b in range(a + 1, clique_size):
                edges.append((base + a, base + b))
        edges.append((base + clique_size - 1, ((c + 1) % cliques) * clique_size))
    return n, edges, truth


def write_gml(path, labels: list[str], edges) -> None:
    """Write vertex v as GML node id v with label `labels[v]`, then the
    edges in list order."""
    lines = ["graph ["]
    for v, label in enumerate(labels):
        lines.append(f'  node [ id {v} label "{label}" ]')
    for u, v in edges:
        lines.append(f"  edge [ source {u} target {v} ]")
    lines.append("]")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
