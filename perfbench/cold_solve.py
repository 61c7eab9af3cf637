"""``cold_solve``: one-shot ``lp`` solves, nothing cached between jobs.

One op is one job: ``Graph(n, edges)`` from an edge list, a fresh
``Session``, then ``solve(k, "lp")``, the path of a CLI or library
call. The job list is every (graph, k) pair over a fixed grid of
``powerlaw_cluster`` shapes, shuffled by the seed; the seed also renames
each graph's nodes (see ``inputs``), so every seed offers the same
graphs up to their labels and the figures stay comparable across seeds.
"""

from __future__ import annotations

import time

import numpy as np

from repro import Graph, Session
from repro.graph.generators import powerlaw_cluster

from checks import solution_errors
from inputs import SHAPE_SEED, permutation, relabel
from layers import CoreCounters, layer_metrics, solve_lp
from measure import Outcome, Yardstick, freeze_heap, latency_metrics, median, peak_rss_mb, wall_record
from spans import Tracer

#: (nodes, triangle-closing p) of each job graph; m_attach is fixed.
GRID = ((4000, 0.9), (8000, 0.45), (12000, 0.75), (16000, 0.3), (20000, 0.6))
M_ATTACH = 4
KS = (3, 4, 5)
#: The warm-up graph solved by set-up: loads lazily imported modules.
WARMUP = (2000, 0.6)
SETUP_REPEATS = 3
#: Jobs take a quarter second or more: read the yardstick after each.
YARD_WINDOW_S = 0.0


def make_inputs(seed: int) -> tuple[list[tuple[int, list]], list[tuple[int, int]], tuple[int, list]]:
    """``(graphs, jobs, warmup)`` for ``seed``: edge lists and (graph, k) jobs."""
    rng = np.random.default_rng(seed)
    shapes = np.random.default_rng(SHAPE_SEED)
    graphs = []
    for n, p in GRID:
        g = powerlaw_cluster(n, M_ATTACH, p, seed=int(shapes.integers(2**31)))
        graphs.append((n, list(relabel(g, permutation(n, rng)).edges())))
    jobs = [(gi, k) for gi in range(len(graphs)) for k in KS]
    jobs = [jobs[i] for i in rng.permutation(len(jobs))]
    warm = powerlaw_cluster(WARMUP[0], M_ATTACH, WARMUP[1], seed=int(shapes.integers(2**31)))
    warm = relabel(warm, permutation(warm.n, rng))
    return graphs, jobs, (warm.n, list(warm.edges()))


def setup(warmup: tuple[int, list]) -> float:
    """Solve the warm-up graph at every k; returns the seconds taken."""
    start = time.perf_counter()
    n, edges = warmup
    session = Session(Graph(n, edges))
    for k in KS:
        session.solve(k, "lp")
    return time.perf_counter() - start


def untraced_pass(graphs: list, jobs: list, seconds: float, yard: Yardstick) -> dict:
    """Run jobs round-robin for ``seconds`` (at least one full round),
    reading the yardstick after every job."""
    per_job: dict[int, list[float]] = {}
    solutions: dict[int, list] = {}
    inputs: dict[int, dict] = {}
    errors: list[str] = []
    start = time.perf_counter()
    i = 0
    while i < len(jobs) or time.perf_counter() - start < seconds:
        j = i % len(jobs)
        gi, k = jobs[j]
        n, edges = graphs[gi]
        t0 = time.perf_counter()
        session = Session(Graph(n, edges))
        result = session.solve(k, "lp")
        elapsed = time.perf_counter() - t0
        per_job.setdefault(j, []).append(elapsed)
        cliques = result.sorted_cliques()
        if j not in solutions:
            solutions[j] = cliques
            inputs[j] = {
                "graph": gi, "n": n, "m": session.graph.m, "k": k,
                "kcliques": int(session.prep.scores(k).sum()) // k,
            }
        elif cliques != solutions[j]:
            errors.append(f"job {j}: repeated solve returned a different solution")
        # Free the job's graph outside the timed region.
        del session, result
        yard.add(elapsed)
        i += 1
    yard.flush()
    return {
        "latencies": yard.scaled, "wall": yard.raw, "per_job": per_job, "solutions": solutions,
        "inputs": [inputs[j] for j in sorted(inputs)], "errors": errors,
    }


def traced_pass(graphs: list, jobs: list, tracer: Tracer, counters: CoreCounters) -> dict[int, tuple[list, float]]:
    """One round over the distinct jobs with per-layer spans."""
    out = {}
    for j, (gi, k) in enumerate(jobs):
        n, edges = graphs[gi]
        with tracer.span("bench.op", job=j, n=n, k=k) as index:
            with tracer.span("graph.build"):
                graph = Graph(n, edges)
            session = Session(graph)
            result = solve_lp(session, k, tracer, counters)
        out[j] = (result.sorted_cliques(), tracer.spans[index].duration)
        del graph, session, result
    return out


def check(graphs: list, jobs: list, solutions: dict[int, list]) -> list[str]:
    """Every distinct job's solution is valid and maximal on its graph."""
    errors = []
    for gi, (n, edges) in enumerate(graphs):
        graph = Graph(n, edges)
        for j, (gj, k) in enumerate(jobs):
            if gj == gi:
                errors += solution_errors(graph, k, solutions[j], f"job {j} (graph {gi}, k={k})")
    return errors


def run(seed: int, seconds: float, trace: bool, import_s: float, yard: Yardstick) -> Outcome:
    graphs, jobs, warmup = make_inputs(seed)
    freeze_heap()
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        before = yard.sample()
        elapsed = setup(warmup)
        setups.append(yard.scale(elapsed, before, yard.sample()))
    freeze_heap()
    measured = untraced_pass(graphs, jobs, seconds / 2 if trace else seconds, yard)
    latencies = measured["latencies"]
    errors = measured["errors"] + check(graphs, jobs, measured["solutions"])
    record: dict = {"inputs": measured["inputs"], "ops": len(latencies), "wall": wall_record(measured["wall"], yard)}
    p50 = latency_metrics(latencies, record)
    if not trace:
        metrics = {
            "setup_s": import_s + median(setups),
            "ops_per_s": len(latencies) / sum(latencies),
            **p50,
            "cliques_found": sum(len(s) for s in measured["solutions"].values()),
            "peak_rss_mb": peak_rss_mb(),
        }
        return Outcome(len(latencies), len(errors), metrics, record, errors)

    tracer, counters = Tracer(), CoreCounters()
    traced = traced_pass(graphs, jobs, tracer, counters)
    for j, (cliques, _) in traced.items():
        if cliques != measured["solutions"][j]:
            errors.append(f"job {j}: traced solution differs from the untraced one")
    untraced_s = sum(median(measured["per_job"][j]) for j in traced)
    metrics = {
        **layer_metrics(tracer, counters),
        "trace.overhead_ratio": sum(d for _, d in traced.values()) / untraced_s - 1.0,
        "bench.wall_op_p50_ms": record["wall"]["op_p50_ms"],
        "bench.op_tail_ms": record["op_tail_ms"]["value_ms"],
    }
    return Outcome(len(latencies) + len(traced), len(errors), metrics, record, errors, tracer)
