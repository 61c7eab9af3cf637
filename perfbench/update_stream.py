"""``update_stream``: the Section VI-E mixed edge stream through ``apply_batch``.

Set-up solves ``lp`` k=4 on the stream's start graph and builds the
maintainer from that solution. One op is one ``apply_batch`` of 256
updates, the default feed flush size. The stream is applied forwards
and then inverted and reversed, which restores the start graph, so a
run can keep applying updates for as long as it measures while every
batch remains a mixed insert/delete batch of the paper's kind.
"""

from __future__ import annotations

import time

import numpy as np

from repro import Graph, Session
from repro.dynamic.maintainer import DynamicDisjointCliques
from repro.dynamic.workload import iter_batches, make_workload
from repro.errors import SolutionError
from repro.graph.generators import powerlaw_cluster

from inputs import SHAPE_SEED, permutation, relabel, relabel_updates
from layers import CoreCounters, layer_metrics, solve_lp
from measure import Outcome, Yardstick, freeze_heap, latency_metrics, mean, median, peak_rss_mb, ratio, wall_record
from spans import Tracer, maybe_span

#: (nodes, m_attach, triangle-closing p) of the clique-rich base graph.
BASE = (10000, 6, 0.9)
#: Edges re-inserted and edges deleted by the mixed stream (each).
COUNT = 10000
K = 4
#: Updates per apply_batch call; FlushPolicy's default max_updates.
BATCH = 256
SETUP_REPEATS = 3
#: Batches take about 10 ms: read the yardstick after each tenth of a
#: second of them.
YARD_WINDOW_S = 0.1
_INVERSE = {"insert": "delete", "delete": "insert"}


def make_inputs(seed: int) -> tuple[int, list, list]:
    """``(n, start_edges, updates)`` of the mixed stream for ``seed``: a
    fixed stream with its nodes renamed by the seed."""
    shapes = np.random.default_rng(SHAPE_SEED)
    base = powerlaw_cluster(*BASE, seed=int(shapes.integers(2**31)))
    start, updates = make_workload(base, "mixed", COUNT, seed=int(shapes.integers(2**31)))
    perm = permutation(start.n, np.random.default_rng(seed))
    return start.n, list(relabel(start, perm).edges()), relabel_updates(updates, perm)


def setup(n: int, edges: list, tracer: Tracer | None = None, counters: CoreCounters | None = None) -> tuple[DynamicDisjointCliques, float, int]:
    """Build the maintainer; returns it, the seconds taken and the k-clique count."""
    start = time.perf_counter()
    with maybe_span(tracer, "graph.build"):
        graph = Graph(n, edges)
    session = Session(graph)
    initial = solve_lp(session, K, tracer, counters)
    with maybe_span(tracer, "dynamic.index_build"):
        dyn = DynamicDisjointCliques(graph, K, initial=initial)
        dyn.apply_batch([])
    elapsed = time.perf_counter() - start
    return dyn, elapsed, int(session.prep.scores(K).sum()) // K


def batches(updates: list) -> tuple[list, list]:
    """The forward stream and its inverse, each split into batches."""
    inverse = [(_INVERSE[op], u, v) for op, u, v in reversed(updates)]
    return list(iter_batches(updates, BATCH)), list(iter_batches(inverse, BATCH))


def timed_pass(dyn: DynamicDisjointCliques, forward: list, backward: list, seconds: float, yard: Yardstick) -> dict:
    """Apply forward, backward, forward, ... batches for ``seconds``,
    and at least the whole forward stream."""
    applied = done = 0
    after_forward = None
    start = time.perf_counter()
    while done < len(forward) or time.perf_counter() - start < seconds:
        lap, index = divmod(done, len(forward))
        chunk = (forward if lap % 2 == 0 else backward)[index]
        t0 = time.perf_counter()
        dyn.apply_batch(chunk)
        yard.add(time.perf_counter() - t0)
        applied += len(chunk)
        done += 1
        if done == len(forward):
            after_forward = dyn.solution().sorted_cliques()
    yard.flush()
    return {"latencies": yard.scaled, "wall": yard.raw, "updates": applied, "after_forward": after_forward}


def expected_edges(start_edges: list, forward: list, backward: list, batches_applied: int) -> set:
    """The edge set the applied prefix of the stream implies."""
    edges = {(min(u, v), max(u, v)) for u, v in start_edges}
    for i in range(batches_applied):
        lap, index = divmod(i, len(forward))
        for op, u, v in (forward if lap % 2 == 0 else backward)[index]:
            edge = (min(u, v), max(u, v))
            if op == "insert":
                edges.add(edge)
            else:
                edges.discard(edge)
    return edges


def check(dyn: DynamicDisjointCliques, start_edges: list, forward: list, backward: list, batches_applied: int) -> list[str]:
    """The maintainer's invariants hold and its graph is the one the
    applied batches imply."""
    errors = []
    try:
        dyn.check_invariants()
    except (AssertionError, SolutionError) as exc:
        errors.append(f"maintainer invariants: {exc!r}")
    if set(dyn.graph.edges()) != expected_edges(start_edges, forward, backward, batches_applied):
        errors.append("maintained graph differs from the edge set the stream implies")
    return errors


def run(seed: int, seconds: float, trace: bool, import_s: float, yard: Yardstick) -> Outcome:
    n, edges, updates = make_inputs(seed)
    forward, backward = batches(updates)
    freeze_heap()
    setup_s = []
    for _ in range(1 if trace else SETUP_REPEATS):
        dyn = None  # the previous maintainer is garbage before the next set-up
        before = yard.sample()
        dyn, elapsed, kcliques = setup(n, edges)
        setup_s.append(yard.scale(elapsed, before, yard.sample()))
    freeze_heap()
    measured = timed_pass(dyn, forward, backward, seconds / 2 if trace else seconds, yard)
    latencies = measured["latencies"]
    errors = check(dyn, edges, forward, backward, len(latencies))
    record: dict = {
        "inputs": [{"n": n, "m": len(edges), "k": K, "kcliques": kcliques, "updates": len(updates)}],
        "ops": len(latencies),
        "wall": wall_record(measured["wall"], yard),
    }
    p50 = latency_metrics(latencies, record)
    if not trace:
        metrics = {
            "setup_s": import_s + median(setup_s),
            "ops_per_s": measured["updates"] / sum(latencies),
            **p50,
            "cliques_found": len(measured["after_forward"]),
            "peak_rss_mb": peak_rss_mb(),
        }
        return Outcome(len(latencies), len(errors), metrics, record, errors)

    del dyn
    tracer, counters = Tracer(), CoreCounters()
    dyn, _, _ = setup(n, edges, tracer, counters)
    freeze_heap()
    before = dict(dyn.stats)
    for i, chunk in enumerate(forward):
        with tracer.span("bench.op", batch=i):
            with tracer.span("dynamic.apply_batch"):
                dyn.apply_batch(chunk)
    if dyn.solution().sorted_cliques() != measured["after_forward"]:
        errors.append("traced stream ended on a different solution than the untraced one")
    delta = {key: dyn.stats[key] - before[key] for key in ("pops", "swaps", "direct_additions", "destroyed_cliques")}
    traced_s = sum(tracer.durations("bench.op"))
    metrics = {
        **layer_metrics(tracer, counters),
        "dynamic.index_build_s": mean(tracer.durations("dynamic.index_build")),
        "dynamic.apply_batch_s": mean(tracer.durations("dynamic.apply_batch")),
        "dynamic.destroyed_cliques": delta["destroyed_cliques"],
        "dynamic.swaps": delta["swaps"],
        "dynamic.swap_yield": ratio(delta["swaps"], delta["pops"]),
        "dynamic.direct_additions": delta["direct_additions"],
        "dynamic.index_candidates": dyn.index_size,
        "trace.overhead_ratio": traced_s / sum(measured["wall"][: len(forward)]) - 1.0,
        "bench.wall_op_p50_ms": record["wall"]["op_p50_ms"],
        "bench.op_tail_ms": record["op_tail_ms"]["value_ms"],
    }
    return Outcome(len(latencies) + len(forward), len(errors), metrics, record, errors, tracer)
