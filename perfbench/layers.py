"""The ``lp`` solve, untraced or decomposed into per-layer spans.

``Session.solve(k, "lp")`` reaches, in dependency order, the
preprocessing accessors ``rank``, ``oriented``, ``oriented_csr`` (only
when the score pass resolves to the CSR backend), ``scores`` and
``score_oriented``, then builds a ``LightweightEngine`` and ticks it to
completion. The traced form pre-calls exactly those accessors under
their own spans, builds the engine through the registry's ``lp``
factory, and ticks it with one span per engine phase, so its solution
and engine stats equal the untraced solve's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import REGISTRY, CliqueSetResult, Session
from repro.cliques.csr_kernels import resolve_backend

from measure import mean, ratio
from spans import Tracer

ENGINE_COUNTERS = ("findmin_calls", "heap_pushes", "heap_pops", "stale_pops")


@dataclass
class CoreCounters:
    """Engine stats summed over traced solves, plus FindMin wall time."""

    kcliques: int = 0
    findmin_s: float = 0.0
    stats: dict = field(default_factory=lambda: dict.fromkeys(ENGINE_COUNTERS, 0))


class TimedFinder:
    """Wraps an engine's ``finder`` to time each ``search`` (FindMin) call."""

    def __init__(self, inner: object, counters: CoreCounters) -> None:
        self._search = inner.search
        self._counters = counters
        self.alive = inner.alive
        self.live_out_degree = inner.live_out_degree
        self.invalidate = inner.invalidate

    def search(self, root: int, k: int) -> object:
        start = time.perf_counter()
        try:
            return self._search(root, k)
        finally:
            self._counters.findmin_s += time.perf_counter() - start


def solve_lp(session: Session, k: int, tracer: Tracer | None, counters: CoreCounters | None) -> CliqueSetResult:
    """``session.solve(k, "lp")``; with a tracer, the per-layer form."""
    if tracer is None:
        return session.solve(k, "lp")
    prep = session.prep
    with tracer.span("graph.order"):
        prep.rank("degeneracy")
    with tracer.span("graph.orient"):
        prep.oriented()
    if k >= 3 and resolve_backend("auto", session.graph.m) == "csr":
        with tracer.span("graph.orient_csr"):
            prep.oriented_csr()
    with tracer.span("cliques.scores", k=k):
        scores = prep.scores(k)
    with tracer.span("core.score_orient", k=k):
        prep.score_oriented(k)
    method = REGISTRY.get("lp")
    with tracer.span("core.engine_init", k=k):
        engine = method.engine(prep, k, method.parse_options({}))
    engine.finder = TimedFinder(engine.finder, counters)
    with tracer.span("core.heapinit"):
        while engine.phase == "init":
            engine.tick()
    with tracer.span("core.drain"):
        while engine.phase == "drain":
            engine.tick()
    result = engine.result()
    counters.kcliques += int(scores.sum()) // k
    for key in ENGINE_COUNTERS:
        counters.stats[key] += int(result.stats.get(key, 0))
    return result


def layer_metrics(tracer: Tracer, counters: CoreCounters) -> dict:
    """Per-layer metrics of the graph, cliques and core layers.

    Every ``*_s`` value is the mean duration of one call of that span.
    """

    def mean_s(name: str) -> float:
        return mean(tracer.durations(name))

    stats = counters.stats
    scores_total = sum(tracer.durations("cliques.scores"))
    return {
        "graph.build_s": mean_s("graph.build"),
        "graph.order_s": mean_s("graph.order"),
        "graph.orient_s": mean_s("graph.orient"),
        "graph.orient_csr_s": mean_s("graph.orient_csr"),
        "cliques.scores_s": mean_s("cliques.scores"),
        "cliques.kcliques": counters.kcliques,
        "cliques.kcliques_per_s": ratio(counters.kcliques, scores_total),
        "core.score_orient_s": mean_s("core.score_orient"),
        "core.engine_init_s": mean_s("core.engine_init"),
        "core.heapinit_s": mean_s("core.heapinit"),
        "core.drain_s": mean_s("core.drain"),
        "core.findmin_calls": stats["findmin_calls"],
        "core.findmin_us": 1e6 * ratio(counters.findmin_s, stats["findmin_calls"]),
        "core.findmin_hit_ratio": ratio(stats["heap_pushes"], stats["findmin_calls"]),
        "core.stale_pop_ratio": ratio(stats["stale_pops"], stats["heap_pops"]),
    }
