"""Independent checks of one `moddiv detect` result.

Everything here works from the benchmark's own copy of the input graph and
from the artifact files; nothing calls into moddiv.
"""

from __future__ import annotations

import math
from collections import Counter


class CheckFailed(Exception):
    """An artifact is missing, malformed or disagrees with the input."""


def read_partition_tsv(text: str, vertex_of: dict[str, int]) -> list[int]:
    """Community of every vertex from `partition.tsv`; every vertex must be
    listed exactly once."""
    assignment = [-1] * len(vertex_of)
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        label, _, community = line.partition("\t")
        v = vertex_of.get(label)
        if v is None:
            raise CheckFailed(f"partition.tsv names unknown vertex {label!r}")
        if assignment[v] != -1:
            raise CheckFailed(f"partition.tsv lists vertex {label!r} twice")
        assignment[v] = int(community)
    if -1 in assignment:
        raise CheckFailed("partition.tsv leaves a vertex unassigned")
    return assignment


def modularity(edges, assignment: list[int]) -> float:
    """Q = sum over communities c of E_c/m - (D_c/2m)^2, in one edge pass."""
    m = len(edges)
    internal: Counter = Counter()
    degree: Counter = Counter()
    for u, v in edges:
        cu, cv = assignment[u], assignment[v]
        degree[cu] += 1
        degree[cv] += 1
        if cu == cv:
            internal[cu] += 1
    return sum(internal[c] / m - (degree[c] / (2 * m)) ** 2 for c in degree)


def disconnected_community(n: int, edges, assignment: list[int]) -> int | None:
    """A community whose members are not connected by its internal edges,
    or None when every community is connected."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if assignment[u] == assignment[v]:
            adj[u].append(v)
            adj[v].append(u)
    sizes = Counter(assignment)
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        reached = 0
        while stack:
            x = stack.pop()
            reached += 1
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        if reached != sizes[assignment[start]]:
            return assignment[start]
    return None


def nmi(a: list[int], b: list[int]) -> float:
    """Normalised mutual information 2 I(A;B) / (H(A) + H(B)) of two
    labellings (Danon et al. 2005); 1.0 when both are a single group."""
    n = len(a)
    joint = Counter(zip(a, b))
    ca, cb = Counter(a), Counter(b)
    info = sum(
        nij / n * math.log(nij * n / (ca[i] * cb[j])) for (i, j), nij in joint.items()
    )
    h = -sum(c / n * math.log(c / n) for c in (*ca.values(), *cb.values()))
    return 2 * info / h if h > 0 else 1.0


def newick_depth(text: str) -> int:
    """Deepest parenthesis nesting of a Newick string."""
    depth = deepest = 0
    for ch in text:
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
    return deepest
