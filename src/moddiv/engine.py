"""Divisive community detection with modularity-guided refinement.

Two pipelines share one engine:

* clustering-coefficient removal (`run_ccr`): repeatedly delete the
  lowest-scoring edge of a community until it falls apart into two pieces,
  then let borderline vertices migrate wherever that improves modularity,
  and keep the split only if global modularity improved;
* betweenness re-division (`run_ccr_ebr`): run the clustering pipeline
  first, then re-divide its communities the same way using edge
  betweenness (removing the highest score), and finish with one global
  refinement pass over every boundary vertex.

Every choice the engine makes is deterministic: candidate edges tie-break
toward the smallest edge id, borderline vertices are visited in ascending
id order, move destinations tie-break toward the smallest community id,
and the work queue is FIFO ordered by each community's smallest vertex.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

from .graph import Graph, Subgraph, connected_components, reachable_within
from .measures import (
    BETWEENNESS,
    CLUSTERING_G3,
    CLUSTERING_KINDS,
    EdgeScoreTable,
    compute_scores,
    rescore_after_removal,
    rescore_around,
)
from .modularity import Partition, modularity_q, move_q

# A split is kept, and a refinement move applied, only when Q rises by more
# than this; it absorbs float noise in the incremental gain formula.
Q_IMPROVEMENT_EPS = 1e-12


class ConfigError(Exception):
    """Engine configuration is inconsistent or out of range."""


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for the divisive engine; defaults reproduce the benchmarks.

    Construction rejects a measure that cannot drive the divisive phase
    (only the clustering measures can; betweenness is the second phase's
    own) and a pass cap below 1.
    """

    measure: str = CLUSTERING_G3
    refine_max_passes: int = 100

    def __post_init__(self) -> None:
        if self.measure not in CLUSTERING_KINDS:
            raise ConfigError(
                f"measure {self.measure!r} cannot drive the divisive phase;"
                " pick a clustering measure (g3 or g4)"
            )
        if self.refine_max_passes < 1:
            raise ConfigError("refine_max_passes must be >= 1")


@dataclass(frozen=True)
class RefinementMove:
    vertex: int
    source: int
    target: int
    gain: float


@dataclass(frozen=True)
class Bisection:
    """Outcome of one divisive split: one side plus the removals that caused it.

    `side` is the side the split test walked, as sorted vertex ids; the
    other side is the rest of the community.  `side_is_a` tells whether
    `side` is side a, the one holding the community's smallest vertex.
    `table` is the score table the removals were picked from, as it stood
    at the last removal (None for a split that needed no scores).
    """

    side: tuple[int, ...]
    side_is_a: bool
    removals: tuple[tuple[int, float], ...]  # (edge id, score at removal time)
    table: EdgeScoreTable | None = field(default=None, repr=False, compare=False)


@dataclass
class DendrogramNode:
    """One community of the split tree, made internal by its accepted split."""

    node_id: int
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    split_q: float | None = None
    moves: tuple[RefinementMove, ...] = ()  # refinement moves of the accepted split
    members: list[int] = field(default_factory=list)  # leaves only


@dataclass(frozen=True)
class TraceEntry:
    """One accepted state of the run."""

    step: str
    q: float
    n_communities: int


class Dendrogram:
    """Split tree of a run, grown as the run accepts splits.

    Node 0 is the root; a disconnected input, `init` counting more than one
    community, gives it one child per component.  `split` turns an accepted
    community's node into an internal node with two children and keeps the
    refinement moves of that split; the moves of a rejected split were
    undone and never reach the tree.  `final_moves` holds the moves of the
    closing global refinement, and `trace` every accepted state from `init`
    on.  `finish` gives each leaf the members its community has in the
    final partition, empty when refinement retired it, and an internal
    node's members are the union of its children's: the leaves partition
    the vertex set.
    """

    def __init__(self, graph: Graph, init: TraceEntry):
        self.graph = graph
        self.trace = [init]
        self.nodes: list[DendrogramNode] = [DendrogramNode(0)]
        self.final_moves: list[RefinementMove] = []
        if init.n_communities == 1:
            self._node_of = {0: 0}  # live community id -> its leaf's node id
        else:
            self.nodes[0].split_q = init.q
            self._node_of = {c: self._add_node(0) for c in range(init.n_communities)}

    def _add_node(self, parent: int) -> int:
        node = DendrogramNode(len(self.nodes), parent)
        self.nodes.append(node)
        self.nodes[parent].children.append(node.node_id)
        return node.node_id

    def split(self, cid: int, children, q_after: float, moves) -> None:
        """Record the accepted split of community `cid` into `children`."""
        parent = self.nodes[self._node_of.pop(cid)]
        parent.split_q = q_after
        parent.moves = tuple(moves)
        for child in children:
            self._node_of[child] = self._add_node(parent.node_id)

    def finish(self, final: Partition) -> None:
        """Give each leaf its community's members in the final partition."""
        for cid, nid in self._node_of.items():
            if cid in final.communities:
                self.nodes[nid].members = final.members(cid)

    def leaves(self) -> list[DendrogramNode]:
        return [n for n in self.nodes if not n.children]

    # -- export -------------------------------------------------------------

    def to_json_obj(self) -> dict:
        """Flat node list in id order; `members` (labels) on leaves only."""
        labels = self.graph.labels

        def move_obj(mv: RefinementMove) -> dict:
            return {"vertex": labels[mv.vertex], "source": mv.source, "target": mv.target,
                    "gain": mv.gain}

        nodes = []
        for node in self.nodes:
            obj: dict = {
                "id": node.node_id,
                "parent": node.parent,
                "split_q": node.split_q,
                "moves": [move_obj(mv) for mv in node.moves],
            }
            if not node.children:
                obj["members"] = [labels[v] for v in node.members]
            nodes.append(obj)
        return {
            "n_vertices": self.graph.n,
            "nodes": nodes,
            "final_moves": [move_obj(mv) for mv in self.final_moves],
            "trace": [
                {"step": t.step, "q": t.q, "n_communities": t.n_communities}
                for t in self.trace
            ],
        }

    def to_newick(self) -> str:
        """Newick text, built with an explicit stack so depth is unbounded.

        Leaves emptied by refinement are left out; a leaf with one member
        is that member's label.
        """
        labels = self.graph.labels

        def clean(text: str) -> str:
            return "".join("_" if ch in " \t,():;[]'" else ch for ch in text)

        out: list[str] = []
        stack: list = [0]  # node ids still to render, and literal tokens
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            node = self.nodes[item]
            if not node.children:
                names = [clean(labels[v]) for v in node.members]
                out.append(names[0] if len(names) == 1 else "(" + ",".join(names) + ")")
                continue
            shown = [
                c for c in node.children
                if self.nodes[c].children or self.nodes[c].members
            ]
            stack.append(")")
            for i, c in enumerate(reversed(shown)):
                if i:
                    stack.append(",")
                stack.append(c)
            stack.append("(")
        return "".join(out) + ";\n"


@dataclass
class DetectionResult:
    """Final partition of the run, with its full provenance.

    Splits are kept only when Q strictly rises and refinement applies only
    positive moves, so the final state is the best one along the trace.

    `jsonl` holds the lines of `trace.jsonl`, `json.dumps(event) + "\n"`
    for every removal, move, accept and reject in run order: the run's one
    event record.  The dendrogram and its trace were grown beside it as
    splits were accepted.  `history` is a read-only view that parses every
    line back into its event on each read (`perfbench/tracer.py` counts
    accepts through it); nothing is kept for it.
    """

    best_partition: Partition
    best_q: float
    dendrogram: Dendrogram
    jsonl: list[str] = field(repr=False)

    @property
    def history(self) -> list[dict]:
        return [json.loads(line) for line in self.jsonl]

    @property
    def trace(self) -> list[TraceEntry]:
        return self.dendrogram.trace


# ---------------------------------------------------------------------------
# Core operations


def _bisection(sub: Subgraph, side: set[int], removals, table) -> Bisection:
    """Bisection of `sub` into the vertices in `side` and the rest."""
    walked = sorted(side)
    return Bisection(tuple(walked), walked[0] == min(sub.nbrs), tuple(removals), table)


def bisect_community(
    g: Graph,
    sub: Subgraph,
    measure: str,
    table: EdgeScoreTable | None = None,
    connected: bool = False,
) -> Bisection:
    """Split the community `sub` in two.

    A disconnected community splits with no removals: the component of its
    smallest vertex against the rest.  Cross-community refinement moves can
    leave a community disconnected, and peeling off a component always
    raises Q.  The search for that component is skipped when the caller
    passes `connected`, having proven the community connected; the
    bisection carries the smaller of that component and the rest.  A
    connected community loses edges until it falls apart:
    clustering measures remove the lowest-scoring edge, betweenness the
    highest; after each removal the table is rescored so that its pick
    is a full recomputation's.  After each removal a two-ended search tests
    whether the edge's endpoints are still connected; a clustering table
    skips the search when the removed edge's kept count of triangles (g3)
    or 4-cycles (g4) is above 0, since any one of them leaves a path
    between the endpoints.  `table` may hold the scores of `sub` already
    (an inherited clustering table); otherwise they are computed.  The
    removals are made on `sub` itself, and the table comes back with the
    bisection, not yet rescored after the last removal.  The bisection
    carries the side the split test ran out of, and the other side is
    never walked.
    """
    if len(sub) < 2:
        raise ValueError("community must contain at least two vertices")
    if not connected:
        side = reachable_within(sub, min(sub.nbrs))
        if len(side) < len(sub):
            if 2 * len(side) > len(sub):
                side = sub.nbrs.keys() - side
            return _bisection(sub, side, (), table)

    if table is None:
        table = compute_scores(measure, g, sub)
    cycles = table.cycles  # the same dict for every rescore; None for betweenness
    removals: list[tuple[int, float]] = []
    # The table never empties: while u and v stay connected after a
    # removal, the path between them keeps at least one edge.
    while True:
        eid = table.removal_candidate()
        removals.append((eid, table.scores[eid]))
        u, v = g.edges[eid]
        sub.remove_edge(u, v)
        # A kept triangle u-w-v or 4-cycle u-v-b-a leaves the path u-w-v or
        # u-a-b-v after the removal, so the search could only find u and v
        # still connected.
        if cycles is None or not cycles[eid]:
            side = reachable_within(sub, u, stop_at=v)
            if u not in side or v not in side:
                return _bisection(sub, side, removals, table)
        table = rescore_after_removal(table, g, sub, eid)


def _reconcile(g: Graph, sub: Subgraph, table: EdgeScoreTable, removals, changed,
               community) -> bool:
    """Bring the `sub` and clustering `table` a bisection left behind (with
    its `removals`) to a fresh build of `community`'s current members.

    `changed` holds every vertex whose membership may differ between `sub`
    and `community`: the peeled side, and every vertex a refinement move
    took into or out of the community since.  Vertices no longer in the
    community go with their edges.  The last removal, never rescored, is
    forgotten; the removed edges with both ends kept come back; members
    that moved in are inserted; and one rescore covers every vertex those
    edits touched.  Returns False, with nothing changed, when that
    rescoring would cost more than half the community's edges: a fresh
    table then costs less.
    """
    members, nbrs = community.members, sub.nbrs
    extra = [v for v in changed if v in nbrs and v not in members]
    new = [v for v in changed if v in members and v not in nbrs]
    readd = [eid for eid, _ in removals if members.issuperset(g.edges[eid])]
    touched = {w for v in extra for w in nbrs[v]}.difference(extra)
    touched.update(x for eid in readd for x in g.edges[eid])
    if removals:
        last = removals[-1][0]
        touched.update(x for x in g.edges[last] if x in members)
    touched.update(w for v in new for w, _ in g.adj[v] if w in members and w in nbrs)
    work = sum(len(nbrs[v]) for v in touched) + 2 * len(readd) + sum(g.degrees[v] for v in new)
    if 2 * work > community.internal_twice // 2:
        return False
    for v in extra:
        table.forget(sub.drop_vertex(v).values())
    if removals:
        table.forget((last,))
    for eid in readd:
        sub.add_edge(*g.edges[eid], eid)
    for v in sorted(new):
        sub.insert_vertex(g, v)
    touched.update(new)
    rescore_around(table, sub, touched)
    return True


def refine(g: Graph, p: Partition, candidates: set[int], max_passes: int):
    """Move candidate vertices wherever modularity strictly improves.

    Passes over the candidates in ascending id order; each vertex is offered
    to every community holding at least one of its neighbors and takes the
    best strictly-positive gain (ties toward the smaller community id).  A
    move makes the mover's neighbors left in its source community candidates
    too, from the next pass on: each now has an edge to another community.
    Stops after a pass with no moves, or at the pass cap.  Mutates the
    partition and `candidates`; returns the partition, together with the
    applied moves.

    `outside[v]` counts the edges from a tallied candidate v that leave its
    community.  It is set from v's tally and kept exact by every move: the
    mover's own count is reset from its tally, a neighbour left in the
    source gains an outside edge and one in the target loses one.  A vertex
    with none offers no target and cannot move, so a sweep skips it without
    tallying it again.
    """
    moves: list[RefinementMove] = []
    m = g.m
    assignment = p.assignment
    outside: dict[int, int] = {}
    for _ in range(max_passes):
        moved = False
        for v in sorted(candidates):
            if outside.get(v) == 0:
                continue
            source = assignment[v]
            tally: dict[int, int] = {}
            for w, _ in g.adj[v]:
                cw = assignment[w]
                tally[cw] = tally.get(cw, 0) + 1
            to_source = tally.get(source, 0)
            degree = g.degrees[v]
            outside[v] = degree - to_source
            source_degree = p.communities[source].total_degree
            best_gain = -math.inf
            best_target = None
            for target in sorted(tally):
                if target == source:
                    continue
                gain = move_q(degree, to_source, tally[target], source_degree,
                              p.communities[target].total_degree, m)
                if gain > best_gain:
                    best_gain = gain
                    best_target = target
            if best_target is not None and best_gain > Q_IMPROVEMENT_EPS:
                to_target = tally[best_target]
                p.move(v, best_target, to_source, to_target)
                outside[v] = degree - to_target
                for w, _ in g.adj[v]:
                    cw = assignment[w]
                    if cw == source:
                        candidates.add(w)
                        if w in outside:
                            outside[w] += 1
                    elif cw == best_target and w in outside:
                        outside[w] -= 1
                moves.append(RefinementMove(v, source, best_target, best_gain))
                moved = True
        if not moved:
            break
    return p, moves


# ---------------------------------------------------------------------------
# Pipelines


class _DivisiveRun:
    def __init__(self, g: Graph, cfg: EngineConfig):
        if g.n == 0:
            raise ValueError("graph has no vertices")
        if g.m == 0:
            raise ValueError("graph has no edges")
        self.g = g
        self.cfg = cfg
        self.partition = Partition(g, connected_components(g).labels)
        # ids of communities known to be connected; see `run_phase`
        self.proven = set(self.partition.communities)
        self.q = modularity_q(g, self.partition)
        self.jsonl: list[str] = []  # one trace.jsonl line per event of any type
        # with `repr` for floats, lines built from these equal json.dumps(event)
        self.label_json = [json.dumps(label) for label in g.labels]
        self.dendrogram = Dendrogram(g, TraceEntry("init", self.q, self.partition.n_communities))

    def _log(self, event: dict) -> None:
        self.jsonl.append(json.dumps(event) + "\n")

    def _log_moves(self, mvs, q: float, phase: int, stage: str | None = None) -> None:
        """One `move` event per applied move, with Q running on from `q`."""
        labels, log = self.g.labels, self._log
        staged = {} if stage is None else {"stage": stage}
        for mv in mvs:
            q += mv.gain
            log({"type": "move", "phase": phase, **staged, "vertex": labels[mv.vertex],
                 "source": mv.source, "target": mv.target, "gain": mv.gain, "q_after": q})

    def _queue_order(self, cids) -> list[int]:
        communities = self.partition.communities
        return sorted(cids, key=lambda c: min(communities[c].members))

    def run_phase(self, phase: int, measure: str) -> None:
        """Bisect queued communities until no split raises Q.

        Each split is judged in place: the live partition is split and
        refined, and on a reject the moves are undone in reverse order and
        the parent's record put back, so ids stay as if nothing happened.

        `self.proven` holds the communities known to be connected, whose
        bisection skips the opening search.  Both sides of a split made by
        removals are connected, and so is the peeled side of a free split.
        A move into a community keeps it connected; a move out of one may
        not, so every move discards its source, and undoing a move its
        target.

        In a clustering phase the larger child of an accepted split keeps
        the subgraph, score table and removals its parent's bisection left
        in `kept`, with the vertices its membership may have changed by:
        the peeled side, then every vertex an accepted split's refinement
        moves into or out of it.  `_reconcile` brings the state to the
        child's members when it is dequeued, so only smaller children are
        usually built fresh.
        Betweenness tables are recomputed after every removal anyway, and
        Brandes' float sums follow the subgraph's vertex order, ascending
        ids only in a fresh build, so the betweenness phase builds every
        subgraph fresh.
        """
        g, p, proven, write = self.g, self.partition, self.proven, self.jsonl.append
        label_json, inf = self.label_json, math.inf
        kept: dict[int, tuple[Subgraph, EdgeScoreTable, tuple, set[int]]] = {}
        queue = deque(self._queue_order(p.communities))
        while queue:
            cid = queue.popleft()
            state = kept.pop(cid, None)
            community = p.communities.get(cid)
            if community is None or len(community.members) < 2:
                continue  # retired by refinement moves, or too small to split

            if state is not None and _reconcile(g, *state, community):
                sub, table = state[:2]
            else:
                sub, table = Subgraph(g, community.members), None
            bis = bisect_community(g, sub, measure, table, connected=cid in proven)
            q = self.q
            head = f'{{"type": "remove", "phase": {phase}, "community": {cid}, "edge_id": '
            tail = f', "q_after": {q!r}}}\n'
            for eid, score in bis.removals:
                u, v = g.edges[eid]
                score_json = '"inf"' if score == inf else repr(score)
                write(f'{head}{eid}, "edge": [{label_json[u]}, {label_json[v]}],'
                      f' "score": {score_json}{tail}')

            new_a, new_b = p.split_community(cid, bis.side, bis.side_is_a)
            proven.update((new_a, new_b) if bis.removals else (new_a,))
            candidates = {x for eid, _ in bis.removals for x in g.edges[eid]}

            q_split = modularity_q(g, p)
            _, mvs = refine(g, p, candidates, self.cfg.refine_max_passes)
            proven.difference_update(mv.source for mv in mvs)
            self._log_moves(mvs, q_split, phase)
            q_new = modularity_q(g, p)

            if q_new > self.q + Q_IMPROVEMENT_EPS:
                self.q = q_new
                proven.discard(cid)
                children = p.communities
                sizes = [len(children[c].members) if c in children else 0 for c in (new_a, new_b)]
                self._log({"type": "accept", "phase": phase, "community": cid,
                           "children": [new_a, new_b], "sizes": sizes, "q_after": q_new})
                self.dendrogram.split(cid, (new_a, new_b), q_new, mvs)
                self.dendrogram.trace.append(TraceEntry("split", q_new, p.n_communities))
                for mv in mvs:
                    for c in (mv.source, mv.target):
                        if c in kept:
                            kept[c][3].add(mv.vertex)
                size = len(community.members)
                size_a = len(bis.side) if bis.side_is_a else size - len(bis.side)
                larger = new_b if size - size_a > size_a else new_a
                if measure != BETWEENNESS and bis.table is not None and larger in children:
                    if (larger == new_a) == bis.side_is_a:  # the walked side is kept
                        changed = community.members.difference(bis.side)
                    else:
                        changed = set(bis.side)
                    changed.update(mv.vertex for mv in mvs)
                    kept[larger] = (sub, bis.table, bis.removals, changed)
                live = [c for c in (new_a, new_b) if c in children]
                for child in self._queue_order(live):
                    queue.append(child)
            else:
                for mv in reversed(mvs):
                    p.undo_move(mv.vertex, mv.source)
                    proven.discard(mv.target)
                p.unsplit(cid, community, (new_a, new_b))
                proven.difference_update((new_a, new_b))
                self._log({"type": "reject", "phase": phase, "community": cid,
                           "q_tentative": q_new, "q_after": q})

    def global_refine(self) -> None:
        """Final refinement over every vertex with an inter-community edge."""
        assignment = self.partition.assignment
        candidates = {
            v for v in range(self.g.n)
            if any(assignment[w] != assignment[v] for w, _ in self.g.adj[v])
        }
        _, mvs = refine(self.g, self.partition, candidates, self.cfg.refine_max_passes)
        if not mvs:
            return
        self._log_moves(mvs, self.q, 2, "final-refine")
        self.dendrogram.final_moves = mvs
        self.q = modularity_q(self.g, self.partition)
        self.dendrogram.trace.append(
            TraceEntry("final-refine", self.q, self.partition.n_communities))

    def result(self) -> DetectionResult:
        best = self.partition.renumbered()
        self.dendrogram.finish(self.partition)
        return DetectionResult(best, modularity_q(self.g, best), self.dendrogram, self.jsonl)


def run_ccr(g: Graph, cfg: EngineConfig | None = None) -> DetectionResult:
    """Divisive detection by clustering-coefficient removal with refinement."""
    cfg = cfg or EngineConfig()
    run = _DivisiveRun(g, cfg)
    run.run_phase(1, cfg.measure)
    return run.result()


def run_ccr_ebr(g: Graph, cfg: EngineConfig | None = None) -> DetectionResult:
    """Clustering-coefficient phase, then betweenness re-division of its
    communities, then a global refinement pass."""
    cfg = cfg or EngineConfig()
    run = _DivisiveRun(g, cfg)
    run.run_phase(1, cfg.measure)
    run.run_phase(2, BETWEENNESS)
    run.global_refine()
    return run.result()
