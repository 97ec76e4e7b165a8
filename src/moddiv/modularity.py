"""Partition bookkeeping, exact modularity, and single-vertex move gains.

A partition keeps one record per community: its members, twice its
internal edge count and the total degree of its members, so modularity and
move gains never require a full rescan.  All formulas operate on the immutable base graph; edge
removals performed during bisection do not affect modularity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graph import Graph


@dataclass
class Community:
    """One community: its member set and the two totals modularity needs.

    `internal_twice` is twice the number of edges with both endpoints in the
    community; `total_degree` is the sum of the members' degrees.
    """

    members: set[int]
    internal_twice: int
    total_degree: int


def _community(graph: Graph, members: set[int]) -> Community:
    internal_twice = 0
    total_degree = 0
    for v in members:
        total_degree += graph.degrees[v]
        for w, _ in graph.adj[v]:
            if w in members:
                internal_twice += 1
    return Community(members, internal_twice, total_degree)


class Partition:
    """Assignment of every vertex to a community, with incremental stats.

    Community ids are dense at construction; ids retired by moves are not
    reused, and `renumbered()` restores density for export.
    """

    __slots__ = ("graph", "assignment", "communities", "_next_id")

    def __init__(self, graph: Graph, assignment: list[int]):
        if len(assignment) != graph.n:
            raise ValueError("assignment length must equal the vertex count")
        ids = sorted(set(assignment))
        if ids != list(range(len(ids))):
            raise ValueError("community ids must be dense 0..k-1")
        self.graph = graph
        self.assignment = list(assignment)
        members: dict[int, set[int]] = {c: set() for c in ids}
        for v, c in enumerate(assignment):
            members[c].add(v)
        self.communities = {c: _community(graph, side) for c, side in members.items()}
        self._next_id = len(ids)

    @property
    def n_communities(self) -> int:
        return len(self.communities)

    def members(self, cid: int) -> list[int]:
        return sorted(self.communities[cid].members)

    def copy(self) -> "Partition":
        clone = object.__new__(Partition)
        clone.graph = self.graph
        clone.assignment = list(self.assignment)
        clone.communities = {
            c: Community(set(s.members), s.internal_twice, s.total_degree)
            for c, s in self.communities.items()
        }
        clone._next_id = self._next_id
        return clone

    def renumbered(self) -> "Partition":
        """Equivalent partition with dense ids, ordered by smallest member."""
        order = sorted(self.communities, key=lambda c: min(self.communities[c].members))
        remap = {c: i for i, c in enumerate(order)}
        return Partition(self.graph, [remap[c] for c in self.assignment])

    # -- engine-facing mutations --------------------------------------------

    def split_community(self, cid: int, side_a, side_b) -> tuple[int, int]:
        """Replace community `cid` by two new communities; returns their ids.

        The two sides must partition the community's member set exactly.
        """
        sa, sb = set(side_a), set(side_b)
        if sa | sb != self.communities[cid].members or sa & sb:
            raise ValueError("sides must partition the community exactly")
        id_a = self._next_id
        id_b = self._next_id + 1
        self._next_id += 2
        del self.communities[cid]
        for new_id, side in ((id_a, sa), (id_b, sb)):
            for v in side:
                self.assignment[v] = new_id
            self.communities[new_id] = _community(self.graph, side)
        return id_a, id_b

    def move(self, v: int, target: int, to_source: int, to_target: int) -> None:
        """Move vertex `v` into community `target` with O(1) stats updates.

        `to_source` counts the edges from `v` to the rest of its current
        community, `to_target` those into `target`.  A community emptied by
        the move is retired (its id is dropped).
        """
        source = self.assignment[v]
        if source == target:
            raise ValueError("move source and target must differ")
        degree = self.graph.degrees[v]
        if to_source > degree or to_target > degree:
            raise ValueError("community edge counts cannot exceed the vertex degree")
        src = self.communities[source]
        dst = self.communities[target]
        src.internal_twice -= 2 * to_source
        dst.internal_twice += 2 * to_target
        src.total_degree -= degree
        dst.total_degree += degree
        src.members.remove(v)
        dst.members.add(v)
        self.assignment[v] = target
        if not src.members:
            del self.communities[source]


def modularity_q(g: Graph, p: Partition) -> float:
    """Exact modularity of the partition, from the per-community totals."""
    if p.graph is not g:
        raise ValueError("partition was built for a different graph")
    if g.m < 1:
        raise ValueError("modularity requires at least one edge")
    two_m = 2.0 * g.m
    q = 0.0
    for c in sorted(p.communities):
        st = p.communities[c]
        q += st.internal_twice / two_m - (st.total_degree / two_m) ** 2
    return q


def modularity_q_pairwise(g: Graph, p: Partition) -> float:
    """Modularity by the ordered-pair definition; slow oracle for `modularity_q`.

    Sums (adjacency - expected under the degree-preserving null model) over
    all ordered vertex pairs sharing a community, including the diagonal.
    """
    if p.graph is not g:
        raise ValueError("partition was built for a different graph")
    if g.m < 1:
        raise ValueError("modularity requires at least one edge")
    two_m = 2.0 * g.m
    adjacency = [set(w for w, _ in g.adj[v]) for v in range(g.n)]
    total = 0.0
    for v in range(g.n):
        cv = p.assignment[v]
        dv = g.degrees[v]
        for w in range(g.n):
            if p.assignment[w] != cv:
                continue
            a = 1.0 if w in adjacency[v] else 0.0
            total += a - dv * g.degrees[w] / two_m
    return total / two_m


def move_q(degree: int, to_source: int, to_target: int, source_degree: int,
           target_degree: int, edge_count: int) -> float:
    """Exact modularity change from moving one vertex between communities.

    `degree` is the vertex's degree and `to_source`/`to_target` its edge
    counts into the rest of its community and into the destination.
    `source_degree` is the source's total degree, still including the
    vertex; `target_degree` the destination's.  Positive values mean the
    move improves modularity.
    """
    m = float(edge_count)
    return (to_target - to_source) / m + (
        source_degree * degree - degree * degree - target_degree * degree
    ) / (2.0 * m * m)


# ---------------------------------------------------------------------------
# Export


def partition_to_tsv(p: Partition) -> str:
    """Vertex label and community id, one row per vertex."""
    dense = p.renumbered()
    lines = ["# vertex\tcommunity"]
    for v in range(dense.graph.n):
        lines.append(f"{dense.graph.labels[v]}\t{dense.assignment[v]}")
    return "\n".join(lines) + "\n"


def partition_to_json_obj(p: Partition) -> dict:
    """JSON-ready summary with per-community stats and modularity."""
    dense = p.renumbered()
    g = dense.graph
    communities = []
    for c in sorted(dense.communities):
        st = dense.communities[c]
        communities.append(
            {
                "id": c,
                "size": len(st.members),
                "internal_edges": st.internal_twice // 2,
                "total_degree": st.total_degree,
                "members": [g.labels[v] for v in dense.members(c)],
            }
        )
    return {
        "q": modularity_q(g, dense),
        "n_communities": dense.n_communities,
        "communities": communities,
    }


def partition_to_json(p: Partition) -> str:
    return json.dumps(partition_to_json_obj(p), indent=2) + "\n"
