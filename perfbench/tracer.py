"""Per-layer spans of one `moddiv detect` call, recorded from outside.

`Tracer.install()` replaces the functions and methods that the CLI and the
engine call across module boundaries with wrappers that record one span per
call (name, start, end, parent span id) and a few counters read from the
arguments or the result; `uninstall()` puts the originals back.  Spans stay
in memory until `dump()` writes them out.  `layer_metrics()` turns the
spans of one operation into the per-layer metrics, with self time computed
from the spans: a span's duration minus the time its direct children cover.

A hook whose target no longer exists makes `install()` raise, and a counter
that cannot be read from its call raises inside the traced call, which
fails the operation: a layer the tracer cannot see never reads as 0.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter


def _depth(result) -> int:
    depth: dict[int, int] = {}
    for node in result.dendrogram.nodes:
        depth[node.node_id] = 0 if node.parent is None else depth[node.parent] + 1
    return max(depth.values())


# (module, attribute path, span name, counters taken from the call, counters
# taken from the result).  Each counter is (name, function of the call's
# (args, kwargs) or of its result).
HOOKS = (
    ("moddiv.cli", "cmd_detect", "cli.detect", (), ()),
    ("moddiv.cli", "load_gml", "graph.load", (), ()),
    ("moddiv.engine", "reachable_within", "graph.reach", (),
     (("graph.reach_visited", len),)),
    ("moddiv.engine", "compute_scores", "measures.score", (), ()),
    ("moddiv.engine", "rescore_after_removal", "measures.rescore", (), ()),
    ("moddiv.measures", "EdgeScoreTable.removal_candidate", "measures.pick", (), ()),
    ("moddiv.measures", "edge_betweenness", "measures.brandes",
     (("measures.brandes_sources", lambda a, k: len(set(a[1]))),), ()),
    ("moddiv.engine", "modularity_q", "modularity.q", (), ()),
    ("moddiv.modularity", "modularity_q", "modularity.q", (), ()),
    ("moddiv.modularity", "Partition.copy", "modularity.copy", (), ()),
    ("moddiv.modularity", "Partition.split_community", "modularity.split", (), ()),
    ("moddiv.engine", "move_q", None, (("modularity.move_q_calls", lambda a, k: 1),), ()),
    ("moddiv.engine", "bisect_community", "engine.bisect", (),
     (("engine.removals", lambda r: len(r.removals)),)),
    ("moddiv.engine", "refine", "engine.refine", (), (("engine.moves", lambda r: len(r[1])),)),
    ("moddiv.engine", "_DivisiveRun.run_phase", "engine.phase", (), ()),
    ("moddiv.engine", "_DivisiveRun.result", "engine.result", (),
     (("engine.accepted", lambda r: sum(e["type"] == "accept" for e in r.history)),
      ("engine.dendrogram_depth", _depth))),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent id]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, on_call, on_result):
        spans, stack, counters = self.spans, self._stack, self.counters

        def count(hooks, *value) -> None:
            for key, f in hooks:
                counters[key] += f(*value)

        if name is None:
            def counted(*args, **kwargs):
                count(on_call, args, kwargs)
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            count(on_call, args, kwargs)
            sid = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            count(on_result, result)
            return result

        return traced

    def install(self) -> None:
        for module, path, name, on_call, on_result in HOOKS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if attr not in vars(owner):
                raise AttributeError(f"{module}.{path} is not defined; update tracer.HOOKS")
            fn = vars(owner)[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, on_call, on_result))
        runners = importlib.import_module("moddiv.cli")._RUNNERS
        for key, fn in list(runners.items()):
            self._saved.append((runners, key, fn))
            runners[key] = self._wrap(fn, "engine.run", (), ())

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def mark(self) -> tuple[int, Counter]:
        """Position to pass to `layer_metrics` for the spans recorded after it."""
        return len(self.spans), self.counters.copy()

    def layer_metrics(self, mark: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since `mark`."""
        first, before = mark
        spans = self.spans[first:]
        total: Counter = Counter()
        calls: Counter = Counter()
        covered: Counter = Counter()
        for name, start, end, parent in spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None and parent >= first:
                covered[parent - first] += end - start
        self_time: Counter = Counter()
        for i, (name, start, end, _) in enumerate(spans):
            self_time[name] += end - start - covered[i]
        count = self.counters - before
        bisections = calls["engine.bisect"]
        return {
            "graph.load_s": total["graph.load"],
            "graph.reach_s": total["graph.reach"],
            "graph.reach_calls": calls["graph.reach"],
            "graph.reach_visited": count["graph.reach_visited"],
            "measures.score_s": self_time["measures.score"],
            "measures.score_calls": calls["measures.score"],
            "measures.rescore_s": self_time["measures.rescore"],
            "measures.rescore_calls": calls["measures.rescore"],
            "measures.pick_s": total["measures.pick"],
            "measures.pick_calls": calls["measures.pick"],
            "measures.brandes_s": total["measures.brandes"],
            "measures.brandes_runs": calls["measures.brandes"],
            "measures.brandes_sources": count["measures.brandes_sources"],
            "modularity.q_s": total["modularity.q"],
            "modularity.q_calls": calls["modularity.q"],
            "modularity.copy_s": total["modularity.copy"],
            "modularity.copy_calls": calls["modularity.copy"],
            "modularity.split_s": total["modularity.split"],
            "modularity.move_q_calls": count["modularity.move_q_calls"],
            "engine.bisect_self_s": self_time["engine.bisect"],
            "engine.bisections": bisections,
            "engine.removals": count["engine.removals"],
            "engine.accept_ratio": count["engine.accepted"] / bisections if bisections else 0.0,
            "engine.refine_s": total["engine.refine"],
            "engine.moves": count["engine.moves"],
            "engine.phase_self_s": self_time["engine.phase"],
            "engine.result_s": total["engine.result"],
            "engine.dendrogram_depth": count["engine.dendrogram_depth"],
            "cli.artifacts_s": total["cli.detect"] - total["graph.load"] - total["engine.run"],
        }

    def dump(self, path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
