"""Per-tenant dynamic feeds: buffered edge streams over ``apply_batch``.

A :class:`DynamicFeed` owns one
:class:`~repro.dynamic.maintainer.DynamicDisjointCliques` (seeded from a
warm pooled session via :meth:`repro.core.session.Session.dynamic`, so
the initial static solve hits the substrate caches) and buffers incoming
edge updates instead of applying them one by one. A buffer *flush*
funnels the whole pending stream through the maintainer's
:meth:`~repro.dynamic.maintainer.DynamicDisjointCliques.apply_batch` —
PR 3's coalesce-and-repair-once engine — which is where the batched
speedup comes from.

Flush policy (:class:`FlushPolicy`) is per feed:

* ``max_updates`` — flush as soon as the buffer holds that many pending
  updates (size trigger, checked on every push);
* ``max_age`` — flush once the *oldest* pending update has waited that
  long. The feed has no background timer thread; age is checked on
  every push and by :meth:`maybe_flush`, which the server calls
  opportunistically between protocol requests. This keeps the feed
  deterministic under test clocks while bounding staleness whenever
  traffic (or the server loop) is flowing.

Reads are always consistent: :meth:`solution` and :meth:`size` flush
pending updates first, so a tenant never observes a solution that
ignores updates it already pushed.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.concurrency import make_rlock
from repro.core.result import CliqueSetResult
from repro.core.session import Session
from repro.dynamic.batch import validate_update
from repro.errors import InvalidParameterError

Update = tuple[str, int, int]


@dataclass(frozen=True)
class FlushPolicy:
    """When a feed's buffered updates are pushed through ``apply_batch``.

    Attributes
    ----------
    max_updates:
        Size trigger: flush when the buffer reaches this many updates
        (``>= 1``; 1 degenerates to per-update application).
    max_age:
        Time trigger in seconds, measured from the oldest buffered
        update (``None`` disables the time trigger).
    """

    max_updates: int = 256
    max_age: float | None = None

    def __post_init__(self) -> None:
        # An int, not a bool: a NaN or inf count never triggers a flush,
        # and any float fails as a buffer slice bound. NaN also passes a
        # bare ``max_age <= 0``.
        if type(self.max_updates) is not int or self.max_updates < 1:
            raise InvalidParameterError(
                f"max_updates must be an int >= 1, got {self.max_updates!r}"
            )
        if self.max_age is not None and not 0 < self.max_age <= sys.float_info.max:
            raise InvalidParameterError(
                f"max_age must be positive, finite seconds or None, got {self.max_age!r}"
            )


@dataclass(frozen=True)
class FlushReport:
    """Outcome of one flush: how much was applied and the solution size."""

    applied: int
    solution_size: int
    pending: int


class DynamicFeed:
    """A buffered edge-update stream bound to one maintained solution.

    Parameters
    ----------
    session:
        Warm session for the tenant's starting graph; the maintainer is
        seeded through :meth:`Session.dynamic`, reusing its caches.
    k:
        Clique size to maintain.
    method:
        Static method for the initial solve (default ``"lp"``).
    policy:
        The feed's :class:`FlushPolicy` (default: size 256, no age cap).
    clock:
        Monotonic time source (injectable for deterministic tests).

    All public methods are thread-safe (one lock per feed); updates from
    one tenant are applied in push order.
    """

    def __init__(
        self,
        session: Session,
        k: int,
        *,
        method: str = "lp",
        policy: FlushPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or FlushPolicy()
        self.k = k
        self._clock = clock
        self._lock = make_rlock("DynamicFeed._lock")
        self._buffer: list[Update] = []
        self._oldest_at: float | None = None
        self.maintainer = session.dynamic(k, method=method)
        self.stats: dict[str, int] = {
            "pushed": 0,
            "flushes": 0,
            "size_flushes": 0,
            "age_flushes": 0,
            "applied": 0,
        }

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def push(self, updates: Iterable[Update]) -> FlushReport | None:
        """Buffer updates; flush (possibly repeatedly) when policy triggers.

        Returns the last :class:`FlushReport` if any flush happened,
        else ``None`` (updates are pending). Malformed updates — unknown
        op, non-integer endpoint, self-loop, endpoint outside the graph —
        raise before anything is buffered, so a bad request never
        half-applies *and* never poisons the buffer: everything
        buffered is guaranteed plannable by ``UpdateBatch.plan`` at
        flush time (a feed's node count never changes, so push-time
        range validation is sound).
        Validation is :func:`repro.dynamic.batch.validate_update` — the
        same rules planning applies at flush time, by construction.
        """
        n = self.maintainer.graph.n
        staged: list[Update] = []
        for op, u, v in updates:
            _, u, v = validate_update(op, u, v, n)
            staged.append((op, u, v))
        # The clock is an injected callable; sample it before taking the
        # lock so a slow (or user-supplied) time source never runs under
        # it, then use the one timestamp for the whole push.
        now = self._clock()
        with self._lock:
            if staged and self._oldest_at is None:
                self._oldest_at = now
            self._buffer.extend(staged)
            self.stats["pushed"] += len(staged)
            report = None
            while len(self._buffer) >= self.policy.max_updates:
                self.stats["size_flushes"] += 1
                report = self._flush_locked(self.policy.max_updates, now)
            if self._age_due(now):
                self.stats["age_flushes"] += 1
                report = self._flush_locked(None, now)
            return report

    def flush(self) -> FlushReport:
        """Apply every pending update now (explicit flush, maybe empty)."""
        now = self._clock()
        with self._lock:
            return self._flush_locked(None, now)

    def maybe_flush(self) -> FlushReport | None:
        """Flush only if the age trigger is due (the server's idle sweep)."""
        now = self._clock()
        with self._lock:
            if not self._age_due(now):
                return None
            self.stats["age_flushes"] += 1
            return self._flush_locked(None, now)

    def _age_due(self, now: float) -> bool:
        return (
            self.policy.max_age is not None
            and self._oldest_at is not None
            and now - self._oldest_at >= self.policy.max_age
        )

    def _flush_locked(self, limit: int | None, now: float) -> FlushReport:
        take = len(self._buffer) if limit is None else min(limit, len(self._buffer))
        chunk = self._buffer[:take]
        # Apply before dropping from the buffer: if apply_batch raises,
        # the planning stage rejected the batch before any mutation, so
        # keeping the buffer intact loses nothing (push-time validation
        # makes this unreachable for feed traffic; this is belt and
        # braces against future failure modes).
        if chunk:
            self.maintainer.apply_batch(chunk)
            self.stats["flushes"] += 1
            self.stats["applied"] += len(chunk)
        self._buffer = self._buffer[take:]
        # Pre-flush ``now``: the survivors were pushed before the flush
        # began, so aging them from the flush start is the honest bound.
        self._oldest_at = now if self._buffer else None
        return FlushReport(
            applied=len(chunk),
            solution_size=self.maintainer.size,
            pending=len(self._buffer),
        )

    # ------------------------------------------------------------------
    # Reads (flush-consistent)
    # ------------------------------------------------------------------
    def solution(self) -> CliqueSetResult:
        """Current maintained solution, after flushing pending updates."""
        now = self._clock()
        with self._lock:
            self._flush_locked(None, now)
            return self.maintainer.solution()

    @property
    def size(self) -> int:
        """Current ``|S|``, after flushing pending updates."""
        now = self._clock()
        with self._lock:
            self._flush_locked(None, now)
            return self.maintainer.size

    @property
    def pending(self) -> int:
        """Number of buffered, not-yet-applied updates."""
        with self._lock:
            return len(self._buffer)

    def info(self) -> dict:
        """Feed counters plus maintainer state (for the protocol)."""
        with self._lock:
            return {
                "k": self.k,
                "pending": len(self._buffer),
                "size": self.maintainer.size,
                "index_size": self.maintainer.index_size,
                "graph_n": self.maintainer.graph.n,
                "graph_m": self.maintainer.graph.m,
                "policy": {
                    "max_updates": self.policy.max_updates,
                    "max_age": self.policy.max_age,
                },
                **self.stats,
            }

    def __repr__(self) -> str:
        return f"DynamicFeed(k={self.k}, size={self.maintainer.size}, pending={self.pending})"
