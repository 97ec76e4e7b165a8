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
import marshal
import math
import os
import sys
from collections import deque
from json.encoder import encode_basestring_ascii

from . import measures
from .graph import Graph, Subgraph, connected_components, reachable_within
from .measures import (
    BETWEENNESS,
    CLUSTERING_G3,
    CLUSTERING_KINDS,
    EdgeScoreTable,
    add_cycles,
    compute_scores,
    lose_cycles,
    lower_keys,
    rescore_after_removal,
)
from .modularity import _NL2, _NL6, Partition, _json_list, modularity_q, move_q
from .record import Record

# A split is kept, and a refinement move applied, only when Q rises by more
# than this; it absorbs float noise in the incremental gain formula.
Q_IMPROVEMENT_EPS = 1e-12


class ConfigError(Exception):
    """Engine configuration is inconsistent or out of range."""


class EngineConfig(Record):
    """Knobs for the divisive engine; defaults reproduce the benchmarks.

    Construction rejects a measure that cannot drive the divisive phase
    (only the clustering measures can; betweenness is the second phase's
    own) and a pass cap that is not an int of at least 1.  A config is
    read-only, and so hashable.
    """

    __slots__ = ("measure", "refine_max_passes")

    def __init__(self, measure: str = CLUSTERING_G3, refine_max_passes: int = 100):
        if measure not in CLUSTERING_KINDS:
            raise ConfigError(
                f"measure {measure!r} cannot drive the divisive phase;"
                " pick a clustering measure (g3 or g4)"
            )
        passes = refine_max_passes
        if type(passes) is not int or passes < 1:  # a bool is no pass cap
            raise ConfigError(f"refine_max_passes must be an int >= 1, not {passes!r}")
        object.__setattr__(self, "measure", measure)
        object.__setattr__(self, "refine_max_passes", passes)

    def __setattr__(self, name, value):
        raise AttributeError(f"EngineConfig is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"EngineConfig is read-only: cannot delete {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class RefinementMove(Record):
    __slots__ = ("vertex", "source", "target", "gain")

    def __init__(self, vertex: int, source: int, target: int, gain: float):
        self.vertex = vertex
        self.source = source
        self.target = target
        self.gain = gain


class Bisection(Record):
    """Outcome of one divisive split: one side plus the removals that caused it.

    `side` is the side the split test walked, as sorted vertex ids; the
    other side is the rest of the community.  `removals` holds (edge id,
    score at removal time) pairs.
    """

    __slots__ = ("side", "removals")

    def __init__(self, side: tuple[int, ...], removals: tuple[tuple[int, float], ...]):
        self.side = side
        self.removals = removals


class DendrogramNode(Record):
    """One community of the split tree, made internal by its accepted split.

    A node starts as a leaf: no children, no split Q, no moves and no
    members.  The run sets the rest: `split_q` and `moves`, the refinement
    moves of the accepted split, when the node is split; `members` when a
    leaf is finished.
    """

    __slots__ = ("node_id", "parent", "children", "split_q", "moves", "members")

    def __init__(self, node_id: int, parent: int | None = None):
        self.node_id = node_id
        self.parent = parent
        self.children: list[int] = []
        self.split_q: float | None = None
        self.moves: tuple[RefinementMove, ...] = ()
        self.members: list[int] = []


class TraceEntry(Record):
    """One accepted state of the run."""

    __slots__ = ("step", "q", "n_communities")

    def __init__(self, step: str, q: float, n_communities: int):
        self.step = step
        self.q = q
        self.n_communities = n_communities


# Newick's reserved characters and blanks, each of which a label loses to "_"
_NEWICK_CLEAN = str.maketrans(dict.fromkeys(" \t,():;[]'", "_"))


def _moves_json(moves, labels: list[str], pad: str) -> str:
    """The indented JSON text of a list of refinement moves; see `_json_list`."""
    key = pad + "    "
    return _json_list([
        f'{{{key}"vertex": {labels[mv.vertex]},{key}"source": {mv.source},'
        f'{key}"target": {mv.target},{key}"gain": {mv.gain!r}{pad}  }}'
        for mv in moves], pad)


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

    # -- export -------------------------------------------------------------

    def to_json_text(self) -> str:
        """The text of `dendrogram.json`, exactly `json.dumps(obj, indent=2)`
        of the object with `n_vertices`, `nodes` (flat, in id order, with
        `members` as labels on leaves only), `final_moves` and `trace`."""
        labels = self.graph.label_json
        nodes = []
        for node in self.nodes:
            parent = "null" if node.parent is None else node.parent
            split_q = "null" if node.split_q is None else repr(node.split_q)
            text = (f'{{\n      "id": {node.node_id},\n      "parent": {parent},'
                    f'\n      "split_q": {split_q},'
                    f'\n      "moves": {_moves_json(node.moves, labels, _NL6)}')
            if not node.children:
                members = _json_list([labels[v] for v in node.members], _NL6)
                text += f',\n      "members": {members}'
            nodes.append(text + "\n    }")
        trace = [f'{{\n      "step": {encode_basestring_ascii(t.step)},\n      "q": {t.q!r},'
                 f'\n      "n_communities": {t.n_communities}\n    }}' for t in self.trace]
        return (f'{{\n  "n_vertices": {self.graph.n},\n  "nodes": {_json_list(nodes, _NL2)},'
                f'\n  "final_moves": {_moves_json(self.final_moves, labels, _NL2)},'
                f'\n  "trace": {_json_list(trace, _NL2)}\n}}')

    def to_newick(self) -> str:
        """Newick text, built with an explicit stack so depth is unbounded.

        A subtree with no member, its leaves all emptied by refinement, is
        left out; a leaf with one member is that member's label.
        """
        labels = self.graph.labels
        held = [bool(node.members) for node in self.nodes]  # the subtree holds a member
        for node in reversed(self.nodes):  # a child's id is above its parent's
            if held[node.node_id] and node.parent is not None:
                held[node.parent] = True

        out: list[str] = []
        stack: list = [0]  # node ids still to render, and literal tokens
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            node = self.nodes[item]
            if not node.children:
                names = [labels[v].translate(_NEWICK_CLEAN) for v in node.members]
                out.append(names[0] if len(names) == 1 else "(" + ",".join(names) + ")")
                continue
            shown = [c for c in node.children if held[c]]
            stack.append(")")
            for i, c in enumerate(reversed(shown)):
                if i:
                    stack.append(",")
                stack.append(c)
            stack.append("(")
        return "".join(out) + ";\n"


class DetectionResult:
    """Final partition of the run, with its full provenance.

    Splits are kept only when Q strictly rises and refinement applies only
    positive moves, so the final state is the best one along the trace.

    `jsonl` holds the lines of `trace.jsonl`, one for every removal, move,
    accept and reject in run order: the run's one event record.  Each line
    is the text of `json.dumps(event) + "\n"`, built as text when the event
    happened (see `_DivisiveRun`).  The dendrogram and its trace were grown
    beside it as splits were accepted.  `history` is a read-only view that parses every
    line back into its event on each read (`perfbench/tracer.py` counts
    accepts through it); nothing is kept for it.
    """

    __slots__ = ("best_partition", "best_q", "dendrogram", "jsonl")

    def __init__(self, best_partition: Partition, best_q: float,
                 dendrogram: Dendrogram, jsonl: list[str]):
        self.best_partition = best_partition
        self.best_q = best_q
        self.dendrogram = dendrogram
        self.jsonl = jsonl

    @property
    def history(self) -> list[dict]:
        return [json.loads(line) for line in self.jsonl]


# ---------------------------------------------------------------------------
# Core operations


def bisect_community(g: Graph, sub: Subgraph, table: EdgeScoreTable,
                     connected: bool = False) -> Bisection:
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
    between the endpoints.  `table` holds the scores of `sub`, and its kind
    is the measure.  The removals are made on `sub` itself, and a
    clustering table is brought up to date in place, the last removal
    forgotten: its kept count was 0, so that is all a rescore would do.
    The bisection carries the side the split test ran out of, and the
    other side is never walked.
    """
    if len(sub) < 2:
        raise ValueError("community must contain at least two vertices")
    if not connected:
        side = reachable_within(sub, min(sub.nbrs))
        if len(side) < len(sub):
            if 2 * len(side) > len(sub):
                side = sub.nbrs.keys() - side
            return Bisection(tuple(sorted(side)), ())

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
                if cycles is not None:
                    table.forget((eid,))
                return Bisection(tuple(sorted(side)), tuple(removals))
        table = rescore_after_removal(table, g, sub, eid)


def _reconcile(g: Graph, sub: Subgraph, table: EdgeScoreTable, removals, changed,
               members: set[int]) -> None:
    """Bring the `sub` and clustering `table` a bisection left to one side
    of its split (with its `removals`) to a fresh build of the community's
    current `members`, by replaying the edits between them.

    `changed` holds every vertex whose membership may differ between `sub`
    and `members`: every vertex a refinement move took into or out of the
    community since the split.  In order: each leaving vertex loses its
    edges to staying ones, each through `lose_cycles`, then goes with the
    rest of its row; the removed edges with both ends kept come back; and
    each vertex that moved in is inserted one edge at a time.  Every edge
    added goes through `add_cycles` first, so the kept counts stay exact,
    and one `lower_keys` over the vertices whose degree rose keeps every
    key a lower bound of its edge's score.  `lose_cycles` is called
    directly, not through `rescore_after_removal`, so that
    `perfbench/tracer.py` counts only the divisive step's rescores there.
    """
    nbrs, edges = sub.nbrs, g.edges
    leaving = [v for v in changed if v in nbrs and v not in members]
    arriving = [v for v in changed if v in members and v not in nbrs]
    rose: set[int] = set()  # vertices whose degree rose
    for v in leaving:
        # every cycle through v and a staying edge holds an edge from v to a
        # staying vertex, so v's other edges go without count updates
        for w, eid in list(nbrs[v].items()):
            if w in members:
                sub.remove_edge(v, w)
                lose_cycles(table, eid)
        table.forget(sub.drop_vertex(v).values())
    for eid, _ in removals:
        u, v = edges[eid]
        if u in nbrs and v in nbrs:
            add_cycles(table, eid)
            sub.add_edge(u, v, eid)
            rose.update((u, v))
    for v in arriving:
        sub.add_vertex(v)
        for w, eid in g.adj[v]:
            if w in nbrs:
                add_cycles(table, eid)
                sub.add_edge(v, w, eid)
                rose.add(w)
        rose.add(v)
    lower_keys(table, rose)


def refine(p: Partition, candidates: set[int], max_passes: int):
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
    g = p.graph
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
# The betweenness phase's helper process

# What the helper calls through a module or class attribute.  A wrapper put
# on one sees only the calls made in its own process, so a phase with any of
# them replaced runs in-process.
_HELPER_CALLS = (
    (globals(), "bisect_community", bisect_community),
    (globals(), "reachable_within", reachable_within),
    (globals(), "compute_scores", compute_scores),
    (globals(), "rescore_after_removal", rescore_after_removal),
    (vars(measures), "edge_betweenness", measures.edge_betweenness),
    (vars(EdgeScoreTable), "removal_candidate", EdgeScoreTable.removal_candidate),
)


def _use_helper(jobs: int) -> bool:
    """Whether a betweenness phase that starts with `jobs` communities to
    bisect forks a helper for them.

    Only with at least two jobs, on a host that can fork and lets this
    process run on two CPUs or more, with no thread running besides this
    one (a fork copies none of them, and a lock one holds stays held in the
    copy), with SIGCHLD at its default (a handler, or ignoring it, reaps
    the helper before `close` can), and with none of `_HELPER_CALLS`
    replaced.
    """
    if jobs < 2 or not hasattr(os, "fork"):
        return False
    import signal  # here, not at the top: it adds about 1 ms to start-up

    if signal.getsignal(signal.SIGCHLD) is not signal.SIG_DFL:
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threading = sys.modules.get("threading")
    if cpus < 2 or threading is not None and threading.active_count() > 1:
        return False
    return all(owner[name] is fn for owner, name, fn in _HELPER_CALLS)


class _BisectionHelper:
    """A forked process that bisects the communities a betweenness phase
    starts with, from the far end of its queue, while the phase works
    through the queue from the front.

    Job i is the i-th of those communities: its members and whether it was
    proven connected when the phase started.  The helper bisects the jobs
    from the last one down and writes each one's side and removals to the
    results pipe, one `marshal` record (which keeps every float's bits)
    behind its length each.  The two ends meet at the mark,
    4 bytes of memory both processes share: `take(i)` sets it to i + 1,
    and the helper reads it before each job and leaves through `os._exit`
    once its next job is below it.  The jobs it never reached are the
    phase's own.  The mark only decides which process bisects a job, never
    what a bisection is.

    A job's bisection equals the one the phase would make in-process while
    the community's members equal the job's: the betweenness phase builds
    each subgraph fresh from the sorted members, and a proven community
    only skips a search that would find all of it.  `take` hands one over
    only then.  `close` kills and reaps the helper, wherever it is.
    """

    def __init__(self, g: Graph, jobs: list[tuple[frozenset[int], bool]]):
        import mmap  # here, not at the top: it adds about 0.5 ms to start-up

        self.g = g
        self.jobs = jobs
        self.low = len(jobs)  # the lowest job whose result was read
        self.done: dict[int, Bisection] = {}  # results read, not yet taken
        self.pending = bytearray()  # result bytes read, not yet a whole record
        self.mark = mmap.mmap(-1, 4)  # shared with the fork; starts at 0
        self.results, result_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.results)
            os.close(result_w)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self.results)
                self._serve(result_w)
                code = 0
            finally:
                os._exit(code)
        os.close(result_w)

    def _serve(self, result_w: int) -> None:
        """The helper's loop: bisect the jobs from the last one down until
        the mark passes it, and write each one out."""
        g, mark = self.g, self.mark
        with os.fdopen(result_w, "wb") as out:
            for i in reversed(range(len(self.jobs))):
                if i < int.from_bytes(mark, "little"):
                    break
                members, connected = self.jobs[i]
                sub = Subgraph(g, members)
                bis = bisect_community(g, sub, compute_scores(BETWEENNESS, g, sub), connected)
                record = marshal.dumps((i, bis.side, bis.removals))
                out.write(len(record).to_bytes(4, "little") + record)
                out.flush()

    def _receive(self, wait: bool) -> bool:
        """Read what the helper has written into `done`.  Without
        `wait`, False when nothing is there; with it, False when the helper
        is gone."""
        os.set_blocking(self.results, wait)
        try:
            data = os.read(self.results, 1 << 16)
        except BlockingIOError:
            return False
        pending = self.pending
        pending += data
        while len(pending) >= 4:
            end = 4 + int.from_bytes(pending[:4], "little")
            if len(pending) < end:
                break
            i, *result = marshal.loads(pending[4:end])
            self.done[i] = Bisection(*result)
            self.low = i
            del pending[:end]
        return bool(data)

    def take(self, i: int, members: set[int]) -> Bisection | None:
        """The helper's bisection of job i, or None when the phase has to
        bisect the community itself: its members are no longer the job's,
        the helper has not reached the job (and, with the mark set, never
        will), or the helper died before writing it."""
        self.mark[:] = (i + 1).to_bytes(4, "little")
        if members != self.jobs[i][0]:
            return None
        done = self.done
        while self._receive(wait=False):
            pass
        if i < self.low - 1:
            return None
        while i not in done:  # the helper is at job i, or has just left
            if not self._receive(wait=True):
                return None
        return done.pop(i)

    def close(self) -> None:
        import signal

        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        os.close(self.results)
        self.mark.close()


# ---------------------------------------------------------------------------
# Pipelines


class _DivisiveRun:
    """The state of one run: the live partition and its Q, the proven
    communities, the dendrogram, and `jsonl`, the `trace.jsonl` lines.

    Each line is built as text when its event happens: one f-string over
    the graph's labels, JSON-encoded once (`Graph.label_json`), with `repr`
    of each float and `"inf"` for an infinite removal score.  That is the
    text `json.dumps` writes for the same event, which
    `oracles.reference_run`'s events check line for line.
    """

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
        self.q = modularity_q(self.partition)
        self.jsonl: list[str] = []  # one trace.jsonl line per event of any type
        self.dendrogram = Dendrogram(g, TraceEntry("init", self.q, self.partition.n_communities))

    def _log_moves(self, mvs, q: float, phase: int, stage: str | None = None) -> None:
        """One `move` line per applied move, with Q running on from `q`."""
        label_json, write = self.g.label_json, self.jsonl.append
        staged = "" if stage is None else f'"stage": {encode_basestring_ascii(stage)}, '
        head = f'{{"type": "move", "phase": {phase}, {staged}"vertex": '
        for mv in mvs:
            q += mv.gain
            write(f'{head}{label_json[mv.vertex]}, "source": {mv.source}, "target": {mv.target},'
                  f' "gain": {mv.gain!r}, "q_after": {q!r}}}\n')

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

        In a clustering phase both children of an accepted split keep the
        state its bisection left: the walked side's rows, scores and counts
        are carved out of the subgraph and table into their own, the other
        side keeps the rest, and each is kept in `kept` with the removals
        and the vertices its membership may have changed by, every vertex
        an accepted split's refinement moves into or out of it.  `_reconcile`
        brings the state to the child's members when it is dequeued, so a
        table is built fresh only for a phase's starting communities.
        Betweenness tables are recomputed after every removal anyway, and
        Brandes' float sums follow the subgraph's vertex order, ascending
        ids only in a fresh build, so the betweenness phase builds every
        subgraph fresh, and its table before the opening search, as a
        clustering phase does for its starting communities.  That makes a
        starting community's bisection a function of its members alone, so
        when `_use_helper` allows, a forked `_BisectionHelper` bisects the
        starting communities from the far end of the queue, and the phase
        takes each result whose community still has the members it had at
        the start.
        """
        g, p, proven, write = self.g, self.partition, self.proven, self.jsonl.append
        label_json, inf = g.label_json, math.inf
        kept: dict[int, tuple[Subgraph, EdgeScoreTable, tuple, set[int]]] = {}
        queue = deque(p.by_first_member(p.communities))
        jobs: dict[int, int] = {}  # community id -> its index among the helper's jobs
        helper = None
        if measure == BETWEENNESS:
            starting = [c for c in queue if len(p.communities[c].members) >= 2]
            if _use_helper(len(starting)):
                try:
                    helper = _BisectionHelper(g, [
                        (frozenset(p.communities[c].members), c in proven) for c in starting])
                    jobs = {c: i for i, c in enumerate(starting)}
                except OSError:
                    pass  # no process to spare: the phase bisects in-process
        try:
            while queue:
                cid = queue.popleft()
                state = kept.pop(cid, None)
                community = p.communities.get(cid)
                if community is None or len(community.members) < 2:
                    continue  # retired by refinement moves, or too small to split

                job = jobs.pop(cid, None)
                bis = None if job is None else helper.take(job, community.members)
                if bis is None:
                    if state is not None:
                        _reconcile(g, *state, community.members)
                        sub, table = state[:2]
                    else:
                        sub = Subgraph(g, community.members)
                        table = compute_scores(measure, g, sub)
                    bis = bisect_community(g, sub, table, connected=cid in proven)
                q = self.q
                head = f'{{"type": "remove", "phase": {phase}, "community": {cid}, "edge_id": '
                tail = f', "q_after": {q!r}}}\n'
                for eid, score in bis.removals:
                    u, v = g.edges[eid]
                    score_json = '"inf"' if score == inf else repr(score)
                    write(f'{head}{eid}, "edge": [{label_json[u]}, {label_json[v]}],'
                          f' "score": {score_json}{tail}')

                new_a, new_b = p.split_community(cid, bis.side)
                walked = p.assignment[bis.side[0]]  # the walked side's id, before any move
                proven.update((new_a, new_b) if bis.removals else (new_a,))
                candidates = {x for eid, _ in bis.removals for x in g.edges[eid]}

                q_split = modularity_q(p)
                _, mvs = refine(p, candidates, self.cfg.refine_max_passes)
                proven.difference_update(mv.source for mv in mvs)
                self._log_moves(mvs, q_split, phase)
                q_new = modularity_q(p)

                if q_new > self.q + Q_IMPROVEMENT_EPS:
                    self.q = q_new
                    proven.discard(cid)
                    children = p.communities
                    size_a, size_b = (len(children[c].members) if c in children else 0
                                      for c in (new_a, new_b))
                    write(f'{{"type": "accept", "phase": {phase}, "community": {cid},'
                          f' "children": [{new_a}, {new_b}], "sizes": [{size_a}, {size_b}],'
                          f' "q_after": {q_new!r}}}\n')
                    self.dendrogram.split(cid, (new_a, new_b), q_new, mvs)
                    self.dendrogram.trace.append(TraceEntry("split", q_new, p.n_communities))
                    if measure != BETWEENNESS:
                        # no live edge crosses the split, so each side's rows,
                        # scores and counts are its own
                        part = sub.split_off(bis.side)
                        rest = new_b if walked == new_a else new_a
                        states = {walked: (part, table.split_off(part.nbrs)), rest: (sub, table)}
                        for child, (child_sub, child_table) in states.items():
                            if child in children:
                                kept[child] = (child_sub, child_table, bis.removals, set())
                    for mv in mvs:
                        for c in (mv.source, mv.target):
                            if c in kept:
                                kept[c][3].add(mv.vertex)
                    queue.extend(p.by_first_member([c for c in (new_a, new_b) if c in children]))
                else:
                    for mv in reversed(mvs):
                        p.undo_move(mv.vertex, mv.source)
                        proven.discard(mv.target)
                    p.unsplit(cid, community, (new_a, new_b))
                    proven.difference_update((new_a, new_b))
                    write(f'{{"type": "reject", "phase": {phase}, "community": {cid},'
                          f' "q_tentative": {q_new!r}, "q_after": {q!r}}}\n')
        finally:
            if helper is not None:
                helper.close()

    def global_refine(self) -> None:
        """Final refinement over every vertex with an inter-community edge."""
        assignment = self.partition.assignment
        candidates = {
            v for v in range(self.g.n)
            if any(assignment[w] != assignment[v] for w, _ in self.g.adj[v])
        }
        _, mvs = refine(self.partition, candidates, self.cfg.refine_max_passes)
        if not mvs:
            return
        self._log_moves(mvs, self.q, 2, "final-refine")
        self.dendrogram.final_moves = mvs
        self.q = modularity_q(self.partition)
        self.dendrogram.trace.append(
            TraceEntry("final-refine", self.q, self.partition.n_communities))

    def result(self) -> DetectionResult:
        best = self.partition.renumbered()
        self.dendrogram.finish(self.partition)
        return DetectionResult(best, modularity_q(best), self.dendrogram, self.jsonl)


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


CCR = "ccr"
CCR_EBR = "ccr-ebr"
# Algorithm name to pipeline: the one table, read by `cli`, `bench` and `oracles`.
RUNNERS = {CCR: run_ccr, CCR_EBR: run_ccr_ebr}
