"""In-memory span recorder for the traced benchmark pass.

A span is ``(name, start, end, parent, tid, args)``. Spans opened with
:meth:`Tracer.span` nest per thread; spans whose timestamps come from
elsewhere (scheduler tickets) are added with :meth:`Tracer.add`. Nothing
is written until the run ends: :meth:`Tracer.chrome_trace` renders the
Chrome trace-event JSON and :meth:`Tracer.layer_self_times` the per-layer
self-time rollup, where a span's self time is its duration minus the part
of its interval that its children cover.

The layer of a span is the part of its name before the first dot, so
``graph.build`` belongs to ``graph`` and ``bench.op`` to ``bench``.
"""

from __future__ import annotations

import threading
import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    """One recorded interval; ``parent`` indexes the tracer's span list."""

    name: str
    start: float
    end: float
    parent: int | None
    tid: int
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Records spans in memory; thread-safe for concurrent ``add``/``span``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        tid: int | None = None,
        **args: object,
    ) -> int:
        """Record an already-timed span and return its index."""
        span = Span(name, start, end, parent, tid if tid is not None else threading.get_ident(), args)
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[int]:
        """Time the body as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = self.add(name, self.clock(), float("nan"), parent, **args)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = self.clock()

    def self_times(self) -> list[float]:
        """Self time of every span, in recording order."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return [
            span.duration - covered_length(children.get(i, []), span.start, span.end)
            for i, span in enumerate(self.spans)
        ]

    def layer_self_times(self) -> dict[str, float]:
        """Total self seconds per layer (the span-name prefix)."""
        rollup: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = span.name.split(".", 1)[0]
            rollup[layer] = rollup.get(layer, 0.0) + own
        return dict(sorted(rollup.items()))

    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name``."""
        return [s.duration for s in self.spans if s.name == name]

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events, µs)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": s.tid,
                "args": {**s.args, "span": i, "parent": s.parent},
            }
            for i, s in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def maybe_span(tracer: Tracer | None, name: str, **args: object) -> AbstractContextManager:
    """``tracer.span(name)``, or a no-op context on untraced passes."""
    return nullcontext() if tracer is None else tracer.span(name, **args)
