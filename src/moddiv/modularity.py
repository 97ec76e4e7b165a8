"""Partition bookkeeping, exact modularity, and single-vertex move gains.

A partition keeps one record per community: its members, twice its
internal edge count and the total degree of its members, so modularity and
move gains never require a full rescan.  All formulas operate on the immutable base graph; edge
removals performed during bisection do not affect modularity.
"""

from __future__ import annotations

from bisect import bisect_left

from .graph import Graph
from .record import Record


class Community(Record):
    """One community: its member set and the two totals modularity needs.

    `internal_twice` is twice the number of edges with both endpoints in the
    community; `total_degree` is the sum of the members' degrees.
    """

    __slots__ = ("members", "internal_twice", "total_degree")

    def __init__(self, members: set[int], internal_twice: int, total_degree: int):
        self.members = members
        self.internal_twice = internal_twice
        self.total_degree = total_degree


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

    `modularity_q` keeps its running sum here: the ascending community ids
    and the partial sums as of its last read, and the ids every mutation
    since has touched (created, changed or retired).  The next read re-adds
    only the terms from the smallest touched id on.
    """

    __slots__ = ("graph", "assignment", "communities", "_next_id",
                 "_q_ids", "_q_sums", "_touched")

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
        self._q_ids: list[int] = []
        self._q_sums: list[float] = []
        self._touched = set(ids)

    @property
    def n_communities(self) -> int:
        return len(self.communities)

    def members(self, cid: int) -> list[int]:
        return sorted(self.communities[cid].members)

    def copy(self) -> "Partition":
        # The engine judges splits in place and no longer copies; this stays
        # because perfbench/tracer.py binds `Partition.copy` by name.
        clone = object.__new__(Partition)
        clone.graph = self.graph
        clone.assignment = list(self.assignment)
        clone.communities = {
            c: Community(set(s.members), s.internal_twice, s.total_degree)
            for c, s in self.communities.items()
        }
        clone._next_id = self._next_id
        clone._q_ids = list(self._q_ids)
        clone._q_sums = list(self._q_sums)
        clone._touched = set(self._touched)
        return clone

    def renumbered(self) -> "Partition":
        """Equivalent partition with dense ids, ordered by smallest member."""
        order = sorted(self.communities, key=lambda c: min(self.communities[c].members))
        remap = {c: i for i, c in enumerate(order)}
        return Partition(self.graph, [remap[c] for c in self.assignment])

    # -- engine-facing mutations --------------------------------------------

    def split_community(self, cid: int, side, side_is_a: bool) -> tuple[int, int]:
        """Replace community `cid` by two new communities; returns their ids.

        `side` is one side of the split: a nonempty proper subset of the
        community, without duplicates.  The other side is the rest of the
        community.  The first id goes to side a, the side holding the
        community's smallest vertex, which `side` is when `side_is_a`.
        Only `side`'s edges are walked: the rest's totals follow from the
        parent's by integer subtraction, and its members are the parent's
        less `side`.  The parent's record is left as it was, so `unsplit`
        can put it back.
        """
        parent = self.communities[cid]
        walked = set(side)
        if not walked or len(walked) != len(side) or not walked < parent.members:
            raise ValueError("side must be a nonempty proper subset of the community")
        assignment, adj, degrees = self.assignment, self.graph.adj, self.graph.degrees
        internal_twice = total_degree = cut = 0
        for v in walked:
            total_degree += degrees[v]
            for w, _ in adj[v]:
                if w in walked:
                    internal_twice += 1
                elif assignment[w] == cid:
                    cut += 1
        records = (
            Community(walked, internal_twice, total_degree),
            Community(
                parent.members - walked,
                parent.internal_twice - internal_twice - 2 * cut,
                parent.total_degree - total_degree,
            ),
        )
        id_a = self._next_id
        id_b = self._next_id + 1
        self._next_id += 2
        del self.communities[cid]
        for new_id, record in zip((id_a, id_b), records if side_is_a else reversed(records)):
            for v in record.members:
                assignment[v] = new_id
            self.communities[new_id] = record
        self._touched.update((cid, id_a, id_b))
        return id_a, id_b

    def unsplit(self, cid: int, parent: Community, children: tuple[int, int]) -> None:
        """Undo the latest `split_community` of `cid` into `children`, once
        every move made since has been undone: put the parent's record back
        with its assignment, and release the children's ids."""
        if children != (self._next_id - 2, self._next_id - 1):
            raise ValueError("only the latest split can be undone")
        for c in children:
            del self.communities[c]
        for v in parent.members:
            self.assignment[v] = cid
        self.communities[cid] = parent
        self._next_id = children[0]
        self._touched.update((cid, *children))

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
        self._touched.add(source)
        self._touched.add(target)

    def undo_move(self, v: int, source: int) -> None:
        """Move `v` back into `source`, the community a `move` took it out
        of, recreating `source` if that move emptied it.  The edge counts are
        recounted from the graph."""
        if source not in self.communities:
            self.communities[source] = Community(set(), 0, 0)
        current = self.assignment[v]
        to_current = to_source = 0
        for w, _ in self.graph.adj[v]:
            c = self.assignment[w]
            if c == current:
                to_current += 1
            elif c == source:
                to_source += 1
        self.move(v, source, to_current, to_source)


def modularity_q(g: Graph, p: Partition) -> float:
    """Exact modularity of the partition, from the per-community totals.

    The terms are added left to right in ascending community id.  The
    partial sums of the last read stand for every id below the smallest one
    touched since, so only the terms from there on are added again: the
    result is the same float a full sum gives.
    """
    if p.graph is not g:
        raise ValueError("partition was built for a different graph")
    if g.m < 1:
        raise ValueError("modularity requires at least one edge")
    ids, sums, touched = p._q_ids, p._q_sums, p._touched
    if touched:
        communities = p.communities
        i = bisect_left(ids, min(touched))
        tail = sorted(c for c in touched.union(ids[i:]) if c in communities)
        del ids[i:], sums[i:]
        two_m = 2.0 * g.m
        q = sums[-1] if sums else 0.0
        for c in tail:
            st = communities[c]
            q += st.internal_twice / two_m - (st.total_degree / two_m) ** 2
            ids.append(c)
            sums.append(q)
        touched.clear()
    return sums[-1]


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


def _dense(p: Partition) -> Partition:
    """`p` itself when its ids are already dense and ordered by smallest
    member, as a run's best partition is; otherwise `p.renumbered()`."""
    ids = sorted(p.communities)
    firsts = [min(p.communities[c].members) for c in ids]
    if ids == list(range(len(ids))) and firsts == sorted(firsts):
        return p
    return p.renumbered()


def partition_to_tsv(p: Partition) -> str:
    """Vertex label and community id, one row per vertex."""
    dense = _dense(p)
    lines = ["# vertex\tcommunity"]
    for v in range(dense.graph.n):
        lines.append(f"{dense.graph.labels[v]}\t{dense.assignment[v]}")
    return "\n".join(lines) + "\n"


def partition_to_json_obj(p: Partition) -> dict:
    """JSON-ready summary with per-community stats and modularity."""
    dense = _dense(p)
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
