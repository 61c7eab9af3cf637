"""Summary statistics shared by every workload."""

from __future__ import annotations

import gc
import heapq
import random
import re
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: Every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: How many samples must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Seconds the reference kernel takes on the nominal core that every
#: end-to-end time is scaled to.
NOMINAL_REF_S = 0.010
#: Size of the reference kernel's inputs (ints in a Python loop, int64s
#: in a numpy sort).
REF_KEYS = 8000
REF_ARRAY = 40000


class Yardstick:
    """Reads the core's speed by timing a fixed reference kernel between ops.

    On a shared host the speed of a core drifts by tens of percent from
    second to second and from minute to minute, and it moves a fixed
    piece of work as much as it moves the program. So every end-to-end
    time is scaled to a nominal core: an op's raw seconds are multiplied
    by ``NOMINAL_REF_S / r``, where ``r`` is the mean time of the kernel
    run just before and just after the op's window. The kernel mixes what
    the program spends its time on (set, dict and heap work on Python
    ints, a numpy sort) and calls no repository code, so a change to the
    program moves scaled times exactly as it moves raw ones.

    Ops are added in order with :meth:`add`; a window closes (and the
    kernel runs) once it holds ``window_s`` raw seconds of ops, or at
    :meth:`flush`. ``raw`` and ``scaled`` list every added op's seconds
    in order once its window has closed.
    """

    def __init__(self, window_s: float = 0.0) -> None:
        rng = random.Random(0)
        self._keys = [rng.randrange(1 << 20) for _ in range(REF_KEYS)]
        self._array = np.random.default_rng(0).integers(0, 1 << 20, REF_ARRAY)
        self.window_s = window_s
        self.samples: list[float] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._pending: list[float] = []
        self._pending_s = 0.0
        self.kernel()  # the first run pays for cold caches
        self.last = self.sample()

    def kernel(self) -> float:
        """Run the reference kernel once; returns its seconds."""
        start = time.perf_counter()
        seen: set[int] = set()
        counts: dict[int, int] = {}
        for key in self._keys:
            seen.add(key)
            counts[key] = counts.get(key, 0) + 1
        heap: list[int] = []
        for key in self._keys[: REF_KEYS // 3]:
            heapq.heappush(heap, key)
        while heap:
            heapq.heappop(heap)
        sorted(seen)
        np.argsort(self._array, kind="stable")
        return time.perf_counter() - start

    def sample(self) -> float:
        """Time the kernel now and remember it as the latest reading."""
        self.last = self.kernel()
        self.samples.append(self.last)
        return self.last

    @staticmethod
    def scale(raw_s: float, before: float, after: float) -> float:
        """``raw_s`` on the nominal core, between kernel readings
        ``before`` and ``after``."""
        return raw_s * NOMINAL_REF_S / ((before + after) / 2.0)

    def add(self, raw_s: float) -> None:
        """Add one op's raw seconds to the open window."""
        self._pending.append(raw_s)
        self._pending_s += raw_s
        if self._pending_s >= self.window_s:
            self.flush()

    def flush(self) -> None:
        """Close the open window: read the kernel and scale its ops."""
        if not self._pending:
            return
        before = self.last
        after = self.sample()
        self.raw += self._pending
        self.scaled += [self.scale(s, before, after) for s in self._pending]
        self._pending, self._pending_s = [], 0.0

    def ref_ms(self) -> float:
        """Median kernel time of the run in ms: the core's speed."""
        return 1000.0 * median(self.samples)


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``metrics`` holds the end-to-end metrics of an untraced run or the
    per-layer metrics of a traced one; ``record`` is written to the
    results file; every entry of ``errors`` is a failed output check.
    """

    attempted: int
    failed: int
    metrics: dict
    record: dict
    errors: list[str] = field(default_factory=list)
    tracer: object = None


def freeze_heap() -> None:
    """Collect, then move every object alive now out of the cyclic
    collector's reach.

    Called after input generation and again after set-up, so collection
    pauses in the timed phase scan only what the timed phase allocates:
    neither the benchmark's input lists nor the garbage of repeated
    set-ups nor long-lived warm state, whose full scans otherwise land
    on a few random ops and make the tails bimodal from run to run.
    """
    gc.collect()
    gc.freeze()


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile with
    :data:`TAIL_BEYOND` samples beyond it.

    With ``n`` samples sorted ascending that is the ``(n - 10)``-th
    value, the ``100 * (n - 10) / n`` percentile: exactly ten samples
    are larger. Needs at least eleven samples.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    ordered = sorted(samples)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def mean(samples: list[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_ms(samples_s: list[float], record: dict, name: str) -> float:
    """The tail of ``samples_s`` in ms; notes it with its percentile and
    sample count under ``record[name]``."""
    value, percentile, n = tail(samples_s)
    record[name] = {"value_ms": 1000.0 * value, "percentile": round(percentile, 3), "n": n}
    return 1000.0 * value


def wall_record(raw_s: list[float], yard: Yardstick) -> dict:
    """Unscaled figures of the timed ops, for the run record."""
    return {
        "op_p50_ms": 1000.0 * median(raw_s),
        "op_seconds": sum(raw_s),
        "ref_ms": yard.ref_ms(),
        "ref_readings": len(yard.samples),
    }


def latency_metrics(samples_s: list[float], record: dict) -> dict:
    """``op_p50_ms`` of per-op latencies in seconds; notes their tail
    under ``record["op_tail_ms"]``.

    The tail is not an end-to-end metric: over ten seeds it spread by up
    to 0.22 of its median on ``serve_mixed`` even with core-speed scaling.
    The traced run reports it as ``bench.op_tail_ms``.
    """
    tail_ms(samples_s, record, "op_tail_ms")
    return {"op_p50_ms": 1000.0 * median(samples_s)}
