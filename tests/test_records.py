"""The package's records are plain slotted classes: construction, defaults,
read-only config and field-wise `==` behave as callers rely on."""

from __future__ import annotations

import pytest

from moddiv import (
    CLUSTERING_G4,
    Bisection,
    ConfigError,
    EngineConfig,
    Graph,
    LoadWarnings,
    RefinementMove,
)
from moddiv.bench import BenchRow
from moddiv.engine import DendrogramNode
from moddiv.modularity import Community
from moddiv.oracles import OracleReport


def test_engine_config_is_read_only():
    cfg = EngineConfig()
    with pytest.raises(AttributeError):
        cfg.measure = CLUSTERING_G4
    with pytest.raises(AttributeError):
        cfg.refine_max_passes = 5
    with pytest.raises(AttributeError):
        del cfg.measure
    with pytest.raises(AttributeError):
        cfg.extra = 1
    assert cfg == EngineConfig() and hash(cfg) == hash(EngineConfig())


def test_engine_config_constructs_by_keyword_and_position():
    cfg = EngineConfig(measure=CLUSTERING_G4, refine_max_passes=7)
    assert (cfg.measure, cfg.refine_max_passes) == (CLUSTERING_G4, 7)
    assert EngineConfig(CLUSTERING_G4, 7) == cfg
    assert EngineConfig(refine_max_passes=7) != cfg
    with pytest.raises(ConfigError):
        EngineConfig(measure="betweenness")
    with pytest.raises(ConfigError):
        EngineConfig(refine_max_passes=True)


def test_default_lists_are_fresh_per_instance():
    a, b = DendrogramNode(0), DendrogramNode(1)
    a.children.append(1)
    a.members.append(2)
    assert b.children == [] and b.members == []
    assert (b.parent, b.split_q, b.moves) == (None, None, ())
    r, s = OracleReport("a", 1, 0.0, 0.0), OracleReport("b", 1, 0.0, 0.0)
    r.record(1.0, "x", 0.0, 1.0)
    assert len(r.failures) == 1 and s.failures == []


@pytest.mark.parametrize("make, other", [
    (lambda: Bisection((0, 1), True, ((3, 0.5),)), lambda: Bisection((0, 1), False, ((3, 0.5),))),
    (lambda: RefinementMove(4, 0, 1, 0.25), lambda: RefinementMove(4, 0, 2, 0.25)),
    (lambda: Community({1, 2}, 2, 3), lambda: Community({1, 2}, 2, 4)),
    (lambda: LoadWarnings(1, 0, ("x",), 2), lambda: LoadWarnings(1, 0, ("y",), 2)),
], ids=["Bisection", "RefinementMove", "Community", "LoadWarnings"])
def test_records_compare_by_their_fields(make, other):
    a = make()
    assert a == make() and not a != make()
    assert a != other()
    assert a != tuple(getattr(a, name) for name in a.__slots__)
    assert repr(a) == repr(make()) and repr(a).startswith(type(a).__name__ + "(")


def test_load_warnings_defaults_and_graph_counters():
    assert LoadWarnings() == LoadWarnings(0, 0, (), 0)
    g = Graph(3, [(0, 1), (1, 0), (2, 2)], extra_warnings=LoadWarnings(weights=4))
    assert g.warnings == LoadWarnings(duplicates=1, self_loops=1, weights=4)


def test_bench_row_constructs_by_keyword():
    kw = dict(dataset="demo", n=5, m=4, algorithm="ccr", q_obtained=0.41,
              q_paper=None, wall_time_ms=1.5, threshold=0.4, passed=True)
    row = BenchRow(**kw)
    assert row.to_obj() == kw
    assert list(row.to_obj()) == list(kw)
