"""Tests of the benchmark's own code (span math, tails, names, checks)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from checks import solution_errors  # noqa: E402
from layers import CoreCounters, layer_metrics, solve_lp  # noqa: E402
from measure import METRIC_NAME, NOMINAL_REF_S, Yardstick, tail  # noqa: E402
from spans import Tracer, covered_length  # noqa: E402

from repro import Graph, Session  # noqa: E402
from repro.graph.generators import powerlaw_cluster  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    root = tracer.add("bench.op", 0.0, 10.0)
    a = tracer.add("graph.build", 1.0, 4.0, root)
    tracer.add("core.drain", 3.0, 6.0, root)  # overlaps a: union is [1, 6]
    tracer.add("cliques.scores", 2.0, 3.0, a)
    tracer.add("core.heapinit", 9.0, 12.0, root)  # clipped to the parent
    assert tracer.self_times() == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    assert tracer.layer_self_times() == pytest.approx(
        {"bench": 4.0, "cliques": 1.0, "core": 6.0, "graph": 2.0}
    )


def test_nested_context_spans_link_parents():
    tracer = Tracer()
    with tracer.span("bench.op"):
        with tracer.span("graph.build"):
            pass
        with tracer.span("core.drain"):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    own = tracer.self_times()
    assert own[0] == pytest.approx(tracer.spans[0].duration - tracer.spans[1].duration - tracer.spans[2].duration)
    events = tracer.chrome_trace()["traceEvents"]
    assert [e["args"]["parent"] for e in events] == [None, 0, 0]


def test_covered_length_merges_and_clips():
    assert covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered_length([(-5, 20)], 0, 10) == 10
    assert covered_length([], 0, 10) == 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    assert tail(samples) == (90.0, 90.0, 100)
    value, percentile, n = tail([float(x) for x in range(11)])
    assert (value, n) == (0.0, 11) and percentile == pytest.approx(100 / 11)
    assert tail([3.0] * 25)[0] == 3.0
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_yardstick_scales_each_window_by_the_readings_around_it(monkeypatch):
    # Warm-up run, then readings at start-up, at each window's close.
    readings = iter([0.5, 0.02, 0.01, 0.04])
    monkeypatch.setattr(Yardstick, "kernel", lambda self: next(readings))
    yard = Yardstick(window_s=0.05)
    for raw in (0.02, 0.02, 0.02):  # the third fills the window
        yard.add(raw)
    yard.add(0.03)
    yard.flush()
    assert yard.samples == [0.02, 0.01, 0.04]
    assert yard.raw == [0.02, 0.02, 0.02, 0.03]
    first = NOMINAL_REF_S / 0.015
    assert yard.scaled == pytest.approx([0.02 * first] * 3 + [0.03 * NOMINAL_REF_S / 0.025])
    yard.flush()  # nothing pending: no reading
    assert len(yard.samples) == 3


def test_every_metric_name_is_well_formed_and_declared_once():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(METRIC_NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(layer_metrics(Tracer(), CoreCounters())) <= declared


def test_corrupted_solutions_trip_the_output_check():
    # Triangles {0,1,2} and {3,4,5}; {2,3,4} is a triangle too.
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3), (2, 4)]
    graph = Graph(6, edges)
    good = [(0, 1, 2), (3, 4, 5)]
    assert solution_errors(graph, 3, good, "good") == []
    missing_edge = Graph(6, [e for e in edges if e != (1, 2)])
    assert "missing edge" in solution_errors(missing_edge, 3, good, "x")[0]
    assert "overlaps" in solution_errors(graph, 3, [(0, 1, 2), (2, 3, 4)], "x")[0]
    assert "not maximal" in solution_errors(graph, 3, [(0, 1, 2)], "x")[0]


def test_traced_lp_solve_equals_the_untraced_one():
    graph = powerlaw_cluster(300, 4, 0.6, seed=3)
    for k in (3, 4):
        plain = Session(graph).solve(k, "lp")
        tracer, counters = Tracer(), CoreCounters()
        traced = solve_lp(Session(graph), k, tracer, counters)
        assert traced.sorted_cliques() == plain.sorted_cliques()
        assert traced.stats == plain.stats
        assert counters.stats["findmin_calls"] == plain.stats["findmin_calls"]
        assert counters.findmin_s > 0
