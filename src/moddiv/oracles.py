"""Slow reference implementations and the self-verification suite.

Everything here is deliberately naive: per-pair path enumeration instead of
dependency accumulation, full set-partition search instead of divisive
splitting, literal cycle counting instead of incremental bookkeeping.  The
fast code in the other modules must agree with these within the stated
tolerances; `run_verification_suite` checks that on seeded random corpora
and is what the `verify` CLI subcommand runs.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque

from .engine import (
    CCR_EBR,
    Q_IMPROVEMENT_EPS,
    RUNNERS,
    EngineConfig,
    RefinementMove,
    _reconcile,
)
from .graph import Graph, Subgraph, connected_components, reachable_within
from .measures import (
    BETWEENNESS,
    CLUSTERING_G3,
    CLUSTERING_G4,
    EdgeScoreTable,
    compute_scores,
    edge_betweenness,
    rescore_after_removal,
)
from .modularity import Partition, modularity_q, modularity_q_pairwise, move_q
from .record import Record

DEFAULT_SEED = 4129

SUITE_CHECKS = (
    "q-fast-vs-pairwise",
    "moveq-vs-recompute",
    "betweenness-vs-naive",
    "betweenness-sum-law",
    "rescore-vs-full",
    "engine-vs-exhaustive",
    "engine-vs-reference",
)


class OracleReport(Record):
    """Outcome of one verification check.

    `failures` holds (input digest, expected, got) triples; it is empty
    exactly when `max_abs_diff` stayed within `tolerance`.
    """

    __slots__ = ("name", "cases", "max_abs_diff", "tolerance", "failures")

    def __init__(self, name: str, cases: int, max_abs_diff: float, tolerance: float,
                 failures: list | None = None):
        self.name = name
        self.cases = cases
        self.max_abs_diff = max_abs_diff
        self.tolerance = tolerance
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, diff: float, digest: str, expected, got) -> None:
        if diff > self.max_abs_diff:
            self.max_abs_diff = diff
        if diff > self.tolerance:
            self.failures.append((digest, expected, got))

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "max_abs_diff": self.max_abs_diff,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "failures": [
                {"input": digest, "expected": expected, "got": got}
                for digest, expected, got in self.failures
            ],
        }


# ---------------------------------------------------------------------------
# Seeded corpora


def gnp_pairs(rng: random.Random, n: int, p: float) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def gnp_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Random graph with at least one edge (one is forced if the draw is empty)."""
    pairs = gnp_pairs(rng, n, p)
    if not pairs:
        pairs = [(0, rng.randrange(1, n))]
    return Graph(n, pairs)


def gnp_connected(rng: random.Random, n: int, p: float) -> Graph:
    """Random connected graph: resample a few times, then stitch components."""
    g = gnp_graph(rng, n, p)
    for _ in range(40):
        if connected_components(g).count == 1:
            return g
        g = gnp_graph(rng, n, p)
    groups = connected_components(g).groups()
    pairs = [g.edges[eid] for eid in range(g.m)]
    base = list(groups[0])
    for other in groups[1:]:
        pairs.append((rng.choice(base), rng.choice(sorted(other))))
        base.extend(other)
    return Graph(n, pairs)


def reference_corpus_graph(rng: random.Random) -> tuple[str, Graph]:
    """A small graph for the engine-vs-reference check, with its kind: G(n, p),
    a planted partition, a ring of cliques, blocks of random cycles, G(n, p)
    with isolated vertices, small cliques hanging off a core clique, or two
    dense cores bridged by edges whose ends hang off one core each.
    Refinement moves of the hanging cliques' hubs leave communities in three
    or more pieces, whose free splits leave a disconnected rest; the other
    kinds almost never do.  Splitting a bridged graph's pieces moves bridge
    ends into a kept core before it is dequeued, so its kept state is
    reconciled with a member from outside; no other kind reaches that.
    Vertex ids are shuffled, so no kind hands the engine its blocks in id
    order."""
    kind = rng.choice(("gnp", "planted", "ring", "cycles", "isolated", "hanging", "bridged"))
    if kind in ("gnp", "isolated"):
        n = rng.randint(4, 30)
        pairs = gnp_graph(rng, n, rng.choice((0.1, 0.2, 0.4))).edges
        if kind == "isolated":
            n += rng.randint(1, 5)
    elif kind == "planted":
        blocks, size = rng.randint(2, 4), rng.randint(4, 8)
        n = blocks * size
        p_in, p_out = rng.choice((0.5, 0.8)), rng.choice((0.03, 0.1))
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < (p_in if u // size == v // size else p_out)
        ]
    elif kind == "ring":
        cliques, size = rng.randint(3, 9), rng.randint(3, 5)
        n = cliques * size
        pairs = [
            (c * size + a, c * size + b)
            for c in range(cliques) for a in range(size) for b in range(a + 1, size)
        ]
        pairs += [(c * size + size - 1, (c + 1) % cliques * size) for c in range(cliques)]
    elif kind == "hanging":
        n = rng.randint(3, 6)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        core = n
        for _ in range(rng.randint(5, 10)):
            size = rng.randint(3, 5)
            pairs += [(a, b) for a in range(n, n + size) for b in range(a + 1, n + size)]
            pairs.append((rng.randrange(core), n))
            if rng.random() < 0.5:
                pairs.append((rng.randrange(core), n + size - 1))
            n += size
    elif kind == "bridged":
        a, b = rng.randint(6, 10), rng.randint(6, 10)
        n = a + b
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if (u < a) == (v < a) and rng.random() < 0.85
        ]
        for _ in range(rng.randint(3, 7)):
            pairs += [(n, n + 1), (rng.randrange(a), n), (rng.randrange(a, a + b), n + 1)]
            n += 2
        pairs += [(rng.randrange(a), rng.randrange(a, a + b)) for _ in range(rng.randint(1, 2))]
    else:
        blocks, size = rng.randint(2, 4), rng.randint(5, 9)
        n = blocks * size
        pairs = []
        for b in range(blocks):
            for _ in range(2):
                cycle = rng.sample(range(b * size, (b + 1) * size), size)
                pairs += zip(cycle, cycle[1:] + cycle[:1])
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(blocks)]
    order = rng.sample(range(n), n)
    pairs = [(order[u], order[v]) for u, v in pairs if u != v]
    if not pairs:
        pairs = [(order[0], order[1])]
    return kind, Graph(n, pairs)


def random_dense_assignment(rng: random.Random, n: int, k: int) -> list:
    """Assignment of n vertices to at most k groups, relabeled densely."""
    raw = [rng.randrange(k) for _ in range(n)]
    seen: dict[int, int] = {}
    out = []
    for c in raw:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return out


# ---------------------------------------------------------------------------
# Reference implementations


def _bfs_counts(g: Graph, source: int, vset: set):
    """Distance and shortest-path counts from `source`, restricted to vset."""
    dist = {source: 0}
    sigma = {source: 1}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for w, _ in g.adj[v]:
            if w not in vset:
                continue
            if w not in dist:
                dist[w] = dv + 1
                sigma[w] = sigma[v]
                queue.append(w)
            elif dist[w] == dv + 1:
                sigma[w] += sigma[v]
    return dist, sigma


def betweenness_naive(g: Graph, within) -> EdgeScoreTable:
    """Edge betweenness by literal per-pair shortest-path counting.

    For every unordered pair (s, t) and every edge (u, v) on some shortest
    s-t route, the edge receives sigma_s(u) * sigma_t(v) / sigma_s(t): the
    fraction of the pair's shortest paths crossing it.  Cross-check for the
    fast accumulation; quadratic in pairs, so capped at 60 vertices.
    """
    verts = sorted(set(within))
    if len(verts) > 60:
        raise ValueError("naive betweenness is capped at 60 vertices")
    vset = set(verts)
    internal = []
    for v in verts:
        for w, eid in g.adj[v]:
            if v < w and w in vset:
                internal.append((eid, v, w))
    scores = {eid: 0.0 for eid, _, _ in internal}
    info = {s: _bfs_counts(g, s, vset) for s in verts}
    for i, s in enumerate(verts):
        dist_s, sig_s = info[s]
        for t in verts[i + 1 :]:
            if t not in dist_s:
                continue
            d_st = dist_s[t]
            total = sig_s[t]
            dist_t, sig_t = info[t]
            for eid, u, v in internal:
                for x, y in ((u, v), (v, u)):
                    if (
                        x in dist_s
                        and y in dist_t
                        and dist_s[x] + 1 + dist_t[y] == d_st
                    ):
                        scores[eid] += sig_s[x] * sig_t[y] / total
    return EdgeScoreTable(BETWEENNESS, scores)


def refine_naive(g: Graph, p: Partition, candidates: set, max_passes: int):
    """`engine.refine` without its kept counts: every sweep tallies every
    candidate's neighbours afresh, interior vertices included.  Mutates `p`
    and `candidates` as `refine` does; returns the partition and the moves.
    """
    moves: list[RefinementMove] = []
    for _ in range(max_passes):
        moved = False
        for v in sorted(candidates):
            source = p.assignment[v]
            tally: dict[int, int] = {}
            for w, _ in g.adj[v]:
                cw = p.assignment[w]
                tally[cw] = tally.get(cw, 0) + 1
            to_source = tally.get(source, 0)
            best_gain = -math.inf
            best_target = None
            for target in sorted(tally):
                if target == source:
                    continue
                gain = move_q(g.degrees[v], to_source, tally[target],
                              p.communities[source].total_degree,
                              p.communities[target].total_degree, g.m)
                if gain > best_gain:
                    best_gain = gain
                    best_target = target
            if best_target is not None and best_gain > Q_IMPROVEMENT_EPS:
                p.move(v, best_target, to_source, tally[best_target])
                candidates.update(w for w, _ in g.adj[v] if p.assignment[w] == source)
                moves.append(RefinementMove(v, source, best_target, best_gain))
                moved = True
        if not moved:
            break
    return p, moves


def _reference_refine(g: Graph, assignment: list, candidates: set, max_passes: int):
    """`refine_naive` on a fresh `Partition` of `assignment`.  Its dense ids keep
    the order of the run's ids, so tie-breaks and Q's summation order are the
    run's; moves come back in the run's ids.  Returns the new assignment, Q
    before and after, and the moves."""
    ids = sorted(set(assignment))
    dense = {c: i for i, c in enumerate(ids)}
    p = Partition(g, [dense[c] for c in assignment])
    q_before = modularity_q(g, p)
    p, moves = refine_naive(g, p, candidates, max_passes)
    moves = [RefinementMove(mv.vertex, ids[mv.source], ids[mv.target], mv.gain) for mv in moves]
    return [ids[c] for c in p.assignment], q_before, modularity_q(g, p), moves


def reference_run(g: Graph, algo: str, measure: str):
    """The divisive pipelines without any of the engine's shortcuts.

    Every bisection builds a fresh `Subgraph`, recomputes the scores after
    every removal, and tests for a split with a one-ended search; every split
    is judged on a fresh `Partition`.  The queue, tie-breaks and events are
    the engine's.  Returns the event log, the best Q and the renumbered
    assignment, as `run_ccr` or `run_ccr_ebr` (`algo` "ccr" or "ccr-ebr")
    would.  The log holds every event as a dict, removals included, and
    `json.dumps` of each is the line the engine writes to `trace.jsonl`.
    Refinement keeps `EngineConfig`'s default pass cap.
    """
    max_passes = EngineConfig().refine_max_passes
    assignment = list(connected_components(g).labels)
    next_id = max(assignment) + 1
    q = modularity_q(g, Partition(g, assignment))
    history: list[dict] = []

    def log_moves(moves, q_run: float, phase: int, stage=None) -> None:
        for mv in moves:
            q_run += mv.gain
            event = {"type": "move", "phase": phase}
            if stage is not None:
                event["stage"] = stage
            event.update(vertex=g.labels[mv.vertex], source=mv.source,
                         target=mv.target, gain=mv.gain, q_after=q_run)
            history.append(event)

    def members(cid) -> list[int]:
        return [v for v in range(g.n) if assignment[v] == cid]

    phases = [(1, measure)] + ([(2, BETWEENNESS)] if algo == CCR_EBR else [])
    for phase, kind in phases:
        queue = deque(sorted(set(assignment), key=lambda c: members(c)[0]))
        while queue:
            cid = queue.popleft()
            verts = members(cid)
            if len(verts) < 2:
                continue
            sub = Subgraph(g, verts)
            side = reachable_within(sub, verts[0])
            removals = []
            while len(side) == len(sub):
                table = compute_scores(kind, g, sub)
                eid = table.removal_candidate()
                removals.append(eid)
                u, v = g.edges[eid]
                sub.remove_edge(u, v)
                side = reachable_within(sub, u)
                score = table.scores[eid]
                history.append({
                    "type": "remove", "phase": phase, "community": cid, "edge_id": eid,
                    "edge": list(g.edge_label_pair(eid)),
                    "score": "inf" if math.isinf(score) else score, "q_after": q,
                })
            sides = ([v for v in verts if v in side], [v for v in verts if v not in side])
            children = (next_id, next_id + 1)
            trial = list(assignment)
            for c, part in zip(children, sorted(sides)):
                for v in part:
                    trial[v] = c
            candidates = {x for eid in removals for x in g.edges[eid]}
            trial, q_split, q_new, moves = _reference_refine(g, trial, candidates, max_passes)
            log_moves(moves, q_split, phase)
            if q_new > q + Q_IMPROVEMENT_EPS:
                assignment, q, next_id = trial, q_new, next_id + 2
                sizes = [assignment.count(c) for c in children]
                history.append({"type": "accept", "phase": phase, "community": cid,
                                "children": list(children), "sizes": sizes, "q_after": q})
                live = [c for c, size in zip(children, sizes) if size]
                queue.extend(sorted(live, key=lambda c: members(c)[0]))
            else:
                history.append({"type": "reject", "phase": phase, "community": cid,
                                "q_tentative": q_new, "q_after": q})
    if algo == CCR_EBR:
        candidates = {
            v for v in range(g.n) if any(assignment[w] != assignment[v] for w, _ in g.adj[v])
        }
        trial, _, q_new, moves = _reference_refine(g, assignment, candidates, max_passes)
        if moves:
            log_moves(moves, q, 2, "final-refine")
            assignment = trial
    order = sorted(set(assignment), key=lambda c: members(c)[0])
    remap = {c: i for i, c in enumerate(order)}
    best = Partition(g, [remap[c] for c in assignment])
    return history, modularity_q(g, best), best.assignment


def _set_partitions(n: int):
    """All set partitions of range(n) as restricted-growth strings."""
    a = [0] * n
    peak = [0] * n
    while True:
        yield a
        i = n - 1
        while i > 0 and a[i] == peak[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        peak[i] = max(peak[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            peak[j] = peak[i]


def exhaustive_best_partition(g: Graph):
    """Globally best partition by scoring every set partition of V.

    Returns (partition, q) where q comes from the pairwise scorer.  Guarded
    at n <= 10 (Bell numbers explode past that)."""
    n = g.n
    if n < 1:
        raise ValueError("empty graph")
    if n > 10:
        raise ValueError("exhaustive search is capped at 10 vertices")
    if g.m < 1:
        raise ValueError("graph has no edges")
    adj = [set() for _ in range(n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    degrees = g.degrees
    two_m = 2.0 * g.m

    def score(assign) -> float:
        q = 0.0
        for v in range(n):
            av = assign[v]
            dv = degrees[v]
            row = adj[v]
            for w in range(n):
                if assign[w] == av:
                    a_vw = 1.0 if w in row else 0.0
                    q += a_vw - dv * degrees[w] / two_m
        return q / two_m

    best_assign = None
    best_score = -math.inf
    for assign in _set_partitions(n):
        s = score(assign)
        if s > best_score:
            best_score = s
            best_assign = list(assign)
    best = Partition(g, best_assign)
    return best, modularity_q_pairwise(g, best)


def cycle_count_naive(g: Graph, sub: Subgraph, edge_id: int, order: int) -> int:
    """Count triangles (order 3) or 4-cycles (order 4) through an edge of
    the subgraph `sub` of `g`, from its literal edge set."""
    if len(sub) > 60:
        raise ValueError("naive cycle counting is capped at 60 vertices")
    if order not in (3, 4):
        raise ValueError("order must be 3 or 4")
    present = {g.edges[eid] for row in sub.nbrs.values() for eid in row.values()}
    if g.edges[edge_id] not in present:
        raise ValueError("edge is not in the subgraph")
    u, v = g.edges[edge_id]
    nbr_u = {b if a == u else a for a, b in present if u in (a, b)}
    nbr_v = {b if a == v else a for a, b in present if v in (a, b)}
    if order == 3:
        return len(nbr_u & nbr_v)
    count = 0
    for a in nbr_u - {v}:
        for b in nbr_v - {u}:
            if a != b and (min(a, b), max(a, b)) in present:
                count += 1
    return count


# ---------------------------------------------------------------------------
# Verification checks


def check_q_fast_vs_pairwise(seed: int, cases: int = 1000) -> OracleReport:
    rng = random.Random(seed)
    report = OracleReport("q-fast-vs-pairwise", cases, 0.0, 1e-12)
    for i in range(cases):
        n = rng.randint(2, 30)
        p = rng.choice((0.1, 0.3, 0.6))
        g = gnp_graph(rng, n, p)
        k = rng.randint(1, n)
        part = Partition(g, random_dense_assignment(rng, n, k))
        fast = modularity_q(g, part)
        slow = modularity_q_pairwise(g, part)
        report.record(
            abs(fast - slow), f"case={i} n={n} m={g.m} k={part.n_communities}", slow, fast
        )
    return report


def check_moveq_vs_recompute(seed: int, cases: int = 10000, move_q_fn=move_q) -> OracleReport:
    """Random move sequences: the predicted gain must match a full recompute.

    `move_q_fn` is injectable so the harness itself can be exercised with a
    deliberately corrupted gain function.
    """
    rng = random.Random(seed)
    report = OracleReport("moveq-vs-recompute", cases, 0.0, 1e-12)
    done = 0
    while done < cases:
        n = rng.randint(3, 30)
        p = rng.choice((0.1, 0.3, 0.6))
        g = gnp_graph(rng, n, p)
        k = rng.randint(2, min(n, 8))
        part = Partition(g, random_dense_assignment(rng, n, k))
        q = modularity_q(g, part)
        for _ in range(20):
            if done >= cases or part.n_communities < 2:
                break
            v = rng.randrange(n)
            source = part.assignment[v]
            targets = [c for c in sorted(part.communities) if c != source]
            target = rng.choice(targets)
            to_source = 0
            to_target = 0
            for w, _ in g.adj[v]:
                cw = part.assignment[w]
                if cw == source:
                    to_source += 1
                elif cw == target:
                    to_target += 1
            gain = move_q_fn(
                g.degrees[v], to_source, to_target,
                part.communities[source].total_degree,
                part.communities[target].total_degree, g.m,
            )
            part.move(v, target, to_source, to_target)
            q_after = modularity_q(g, part)
            report.record(
                abs((q_after - q) - gain),
                f"case={done} n={n} m={g.m} v={v} {source}->{target}",
                q_after - q,
                gain,
            )
            q = q_after
            done += 1
    return report


def _betweenness_corpus(seed: int, cases: int):
    rng = random.Random(seed)
    for i in range(cases):
        n = rng.randint(4, 40)
        p = rng.choice((0.1, 0.3, 0.6))
        yield i, gnp_connected(rng, n, p)


def check_betweenness_vs_naive(seed: int, cases: int = 200, fast_fn=edge_betweenness) -> OracleReport:
    report = OracleReport("betweenness-vs-naive", cases, 0.0, 1e-9)
    for i, g in _betweenness_corpus(seed, cases):
        verts = range(g.n)
        fast = fast_fn(g, Subgraph(g, verts))
        slow = betweenness_naive(g, verts)
        for eid in sorted(slow.scores):
            report.record(
                abs(fast.scores[eid] - slow.scores[eid]),
                f"case={i} n={g.n} m={g.m} edge={eid}",
                slow.scores[eid],
                fast.scores[eid],
            )
    return report


def check_betweenness_sum_law(seed: int, cases: int = 200, fast_fn=edge_betweenness) -> OracleReport:
    """Total edge betweenness of a connected graph equals the sum of all
    pairwise shortest-path distances (each pair's unit of flow crosses
    exactly d(s, t) edges, however it splits across routes)."""
    report = OracleReport("betweenness-sum-law", cases, 0.0, 1e-9)
    for i, g in _betweenness_corpus(seed, cases):
        table = fast_fn(g, Subgraph(g, range(g.n)))
        total = sum(table.scores[eid] for eid in sorted(table.scores))
        dist_sum = 0
        vset = set(range(g.n))
        for s in range(g.n):
            dist, _ = _bfs_counts(g, s, vset)
            dist_sum += sum(d for t, d in dist.items() if t > s)
        report.record(
            abs(total - dist_sum), f"case={i} n={g.n} m={g.m}", dist_sum, total
        )
    return report


def clustering_pick_naive(scores: dict[int, float]) -> int:
    """The clustering pick by a full scan: lowest score, then smallest edge id."""
    best = min(scores.values())
    return min(eid for eid, s in scores.items() if s == best)


def key_bound_violation(table: EdgeScoreTable) -> int | None:
    """Smallest live edge whose key breaks the clustering table's heap
    contract: `scores[eid]` must be at most the exact `score(eid)` and the
    heap must hold `(scores[eid], eid)`.  None when every key keeps it."""
    held = set(table.heap)
    for eid in sorted(table.scores):
        key, exact = table.scores[eid], table.score(eid)
        if not key <= exact or (key, eid) not in held:
            return eid
    return None


def _step_inheritance(rng: random.Random, g: Graph, sub: Subgraph,
                      table: EdgeScoreTable, removed: set):
    """One random step on `sub` and `table`, as the engine's kept states see
    them: an edge removal rescored as bisection does; a carve, which
    removes every live edge between a random side and the rest as
    bisection does, then splits that side's rows off `sub` and `table`; or
    1-3 edits of a kept community (dropped vertices, re-added edges,
    inserted vertices), handed as one batch to the engine's `_reconcile`:
    the new members, the vertices that changed, and the re-added removals.
    `removed` holds the removed edges between live vertices.

    Returns the step's edits with the `(sub, table, removed)` states to
    compare with fresh builds, the one to go on with first; None when the
    step had nothing to act on."""
    roll = rng.random()
    if roll < 0.25:
        if not table.scores:
            return None
        eid = rng.choice(sorted(table.scores))
        sub.remove_edge(*g.edges[eid])
        rescore_after_removal(table, g, sub, eid)
        removed.add(eid)
        return f"remove={eid}", [(sub, table, removed)]
    if roll < 0.35:
        if len(sub) < 2:
            return None
        side = set(rng.sample(sorted(sub), rng.randint(1, len(sub) - 1)))
        for eid in sorted({e for v in side for w, e in sub.nbrs[v].items() if w not in side}):
            sub.remove_edge(*g.edges[eid])
            rescore_after_removal(table, g, sub, eid)
        part = sub.split_off(sorted(side))
        states = [
            (sub, table, {eid for eid in removed if side.isdisjoint(g.edges[eid])}),
            (part, table.split_off(part.nbrs),
             {eid for eid in removed if side.issuperset(g.edges[eid])}),
        ]
        if rng.random() < 0.5:
            states.reverse()
        return "carve=" + "+".join(map(str, sorted(side))), states
    edits: list[str] = []
    members = set(sub.nbrs)
    changed: set[int] = set()
    readd: list[tuple[int, None]] = []
    order = ("drop", "readd", "insert")
    for op in sorted((rng.choice(order) for _ in range(rng.randint(1, 3))), key=order.index):
        if op == "readd" and removed:
            eid = rng.choice(sorted(removed))
            readd.append((eid, None))
            removed.discard(eid)
            edits.append(f"readd={eid}")
        elif op == "drop" and len(members) > 2:
            v = rng.choice(sorted(members))
            removed.difference_update(eid for _, eid in g.adj[v])
            members.discard(v)
            changed.add(v)
            edits.append(f"drop={v}")
        elif op == "insert":
            # not one dropped in this batch: to `_reconcile` that is no
            # change, but its removed edges are already out of `removed`
            outside = [v for v in range(g.n) if v not in sub.nbrs and v not in members]
            if outside:
                v = rng.choice(outside)
                members.add(v)
                changed.add(v)
                edits.append(f"insert={v}")
    if not edits:
        return None
    _reconcile(g, sub, table, readd, changed, members)
    return ",".join(edits), [(sub, table, removed)]


def fresh_mismatch(g: Graph, table: EdgeScoreTable, fresh: Subgraph):
    """First way the clustering `table`, and the rows `table.nbrs` it
    scores, differ from `fresh` and `compute_scores(table.kind, g, fresh)`,
    as (where, expected, got); None when the kept state equals that fresh
    build.  In order: the rows and the edge set, the kept counts, the keys
    (each at most its exact score and held by the heap), the heap size (at
    most twice the live scores), every exact score, the pick against a
    scan of the fresh scores, and the pick's key, which must be exact."""
    want = compute_scores(table.kind, g, fresh)
    rows, fresh_rows = table.nbrs, fresh.nbrs
    if rows != fresh_rows:
        v = min(v for v in rows.keys() | fresh_rows.keys() if rows.get(v) != fresh_rows.get(v))
        return f"vertex={v} row", fresh_rows.get(v), rows.get(v)
    if table.scores.keys() != want.scores.keys():
        return "edges", sorted(want.scores), sorted(table.scores)
    if table.cycles != want.cycles:
        e = min(e for e in table.cycles.keys() | want.cycles.keys()
                if table.cycles.get(e) != want.cycles.get(e))
        return f"edge={e} cycles", want.cycles.get(e), table.cycles.get(e)
    e = key_bound_violation(table)
    if e is not None:
        return f"edge={e} key", table.score(e), table.scores[e]
    if len(table.heap) > 2 * len(table.scores):
        return "heap", 2 * len(table.scores), len(table.heap)
    for e in sorted(want.scores):
        if table.score(e) != want.scores[e]:
            return f"edge={e}", want.scores[e], table.score(e)
    if want.scores:
        pick, got = clustering_pick_naive(want.scores), table.removal_candidate()
        if got != pick:
            return "pick", pick, got
        if table.scores[got] != want.scores[pick]:
            return "pick score", want.scores[pick], table.scores[got]
    return None


def check_rescore_vs_full(seed: int, cases: int = 50) -> OracleReport:
    """Incrementally kept clustering state must equal a fresh build, as
    `fresh_mismatch` checks it, after every step.

    Each case interleaves edge removals with carves and with batches of the
    edits a kept community sees, re-added edges, dropped vertices and
    inserted vertices, each batch rescored once.  The fresh build is a
    `Subgraph` of the same vertices, less the same removed edges; a carve
    compares both parts, then goes on with one of them.  A g4 table's kept
    4-cycle counts are also checked against literal enumeration.  The first
    difference ends the case."""
    rng = random.Random(seed)
    report = OracleReport("rescore-vs-full", cases, 0.0, 0.0)
    for i in range(cases):
        kind = CLUSTERING_G3 if i % 2 == 0 else CLUSTERING_G4
        n = rng.randint(5, 40 if kind == CLUSTERING_G3 else 25)
        p = rng.choice((0.1, 0.3))
        g = gnp_connected(rng, n, p)
        if rng.random() < 0.5:
            within = list(range(g.n))
        else:
            size = rng.randint(3, g.n)
            within = rng.sample(range(g.n), size)
        sub = Subgraph(g, within)
        state = (sub, compute_scores(kind, g, sub), set())
        for step in range(12):
            stepped = _step_inheritance(rng, g, *state)
            if stepped is None:
                continue
            edit, states = stepped
            digest = f"case={i} kind={kind} n={g.n} step={step} {edit}"
            ended = False
            for k, (part, table, removed) in enumerate(states):
                fresh = Subgraph(g, part)
                for eid in sorted(removed):
                    fresh.remove_edge(*g.edges[eid])
                mismatch = fresh_mismatch(g, table, fresh)
                if mismatch is None and kind == CLUSTERING_G4:
                    for e, f in sorted(table.cycles.items()):
                        naive = cycle_count_naive(g, fresh, e, 4)
                        if f != naive:
                            mismatch = f"edge={e} naive cycles", naive, f
                            break
                if mismatch is not None:
                    where, want, got = mismatch
                    # an exact score off by a finite amount is recorded as
                    # that amount, any other difference as infinite
                    score = where.startswith("edge=") and " " not in where
                    off = abs(want - got) if score and math.isfinite(want - got) else math.inf
                    part_digest = digest if len(states) == 1 else f"{digest} part={k}"
                    report.record(off, f"{part_digest} {where}", want, got)
                    ended = True
            if ended:
                break
            state = states[0]
    return report


def check_engine_vs_exhaustive(seed: int, cases: int = 100) -> OracleReport:
    """The divisive engine may never beat the exhaustive optimum, and should
    land within 90% of it on at least 90% of the sample."""
    rng = random.Random(seed)
    report = OracleReport("engine-vs-exhaustive", cases, 0.0, 1e-12)
    in_band = 0
    for i in range(cases):
        n = rng.randint(3, 8)
        p = rng.choice((0.3, 0.6))
        g = gnp_connected(rng, n, p)
        _, opt_q = exhaustive_best_partition(g)
        digest = f"case={i} n={g.n} m={g.m}"
        best_seen = -math.inf
        for label, runner in RUNNERS.items():
            got = runner(g).best_q
            best_seen = max(best_seen, got)
            excess = got - opt_q
            report.record(max(0.0, excess), f"{digest} algo={label}", opt_q, got)
        if best_seen >= 0.9 * opt_q - 1e-12:
            in_band += 1
    if in_band < 0.9 * cases:
        report.failures.append(
            (f"band-rate seed={seed}", ">=90% within 0.9x optimum", f"{in_band}/{cases}")
        )
    return report


def engine_reference_mismatch(g: Graph, algo: str, measure: str):
    """First difference between the engine's run of `algo` with `measure` and
    `reference_run`'s, as (where, expected, got); None when the trace lines
    (the engine's `jsonl` against `json.dumps` of each reference event), the
    best Q and the assignment are all identical."""
    runner = RUNNERS[algo]
    try:
        got = runner(g, EngineConfig(measure=measure))
    except Exception as exc:  # a crashing engine fails the check, not the suite
        return "raised", None, repr(exc)
    history, best_q, assignment = reference_run(g, algo, measure)
    lines = [json.dumps(event) + "\n" for event in history]
    for i, (want, line) in enumerate(zip(lines, got.jsonl)):
        if want != line:
            return f"event={i}", want, line
    if len(lines) != len(got.jsonl):
        i = min(len(lines), len(got.jsonl))
        return f"event={i}", lines[i:i + 1], got.jsonl[i:i + 1]
    if got.best_q != best_q:
        return "best_q", best_q, got.best_q
    if got.best_partition.assignment != assignment:
        v = min(v for v in range(g.n) if got.best_partition.assignment[v] != assignment[v])
        return f"vertex={v}", assignment[v], got.best_partition.assignment[v]
    return None


def check_engine_vs_reference(seed: int, cases: int = 150) -> OracleReport:
    """Whole runs of both pipelines, with g3 and g4, must equal
    `reference_run` exactly on a seeded `reference_corpus_graph` corpus."""
    rng = random.Random(seed)
    report = OracleReport("engine-vs-reference", cases, 0.0, 0.0)
    for i in range(cases):
        kind, g = reference_corpus_graph(rng)
        for algo in RUNNERS:
            for measure in (CLUSTERING_G3, CLUSTERING_G4):
                mismatch = engine_reference_mismatch(g, algo, measure)
                if mismatch is not None:
                    where, want, got = mismatch
                    digest = f"case={i} graph={kind} n={g.n} m={g.m} algo={algo} measure={measure}"
                    report.record(math.inf, f"{digest} {where}", want, got)
    return report


def run_verification_suite(seed: int = DEFAULT_SEED) -> list:
    """All checks with deterministic seeds; betweenness checks share a corpus."""
    return [
        check_q_fast_vs_pairwise(seed),
        check_moveq_vs_recompute(seed + 1),
        check_betweenness_vs_naive(seed + 2),
        check_betweenness_sum_law(seed + 2),
        check_rescore_vs_full(seed + 3),
        check_engine_vs_exhaustive(seed + 4),
        check_engine_vs_reference(seed + 5),
    ]
