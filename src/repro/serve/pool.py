"""Session pool: LRU + byte-budget cache of warm :class:`Session` objects.

Every solve that misses the pool pays the full preprocessing bill (core
decomposition, orientation, score pass, maybe a clique listing); every
hit reuses it. The pool is therefore the serving layer's main lever:
repeated solves over the same tenant graph become cache-hit cheap, and
the byte budget bounds how much substrate memory a long-lived server
accumulates across tenants.

Keys are content fingerprints (:mod:`repro.graph.fingerprint`), not
object identities, so two tenants registering equal graphs share one
session. Eviction is LRU, constrained by ``max_sessions`` (count) and
``max_bytes`` (sum of :meth:`Session.estimated_bytes`, re-measured on
every admission because substrate caches grow as solves land).

Eviction only drops the pool's reference: a session currently executing
a solve on a scheduler worker stays alive through that worker's
reference and completes normally — sessions are bound to immutable
graphs and their caches are internally locked, so there is no unsafe
window (see the thread-safety notes in :mod:`repro.core.session`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.concurrency import make_rlock
from repro.core.registry import REGISTRY, SolverRegistry
from repro.core.session import Session
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph
from repro.graph.fingerprint import graph_fingerprint


class SessionPool:
    """A thread-safe LRU cache of sessions keyed by graph fingerprint.

    Parameters
    ----------
    max_sessions:
        Maximum number of resident sessions (``None`` = unbounded).
    max_bytes:
        Byte budget over the estimated size of all resident sessions
        (``None`` = unbounded). A single session larger than the budget
        is still admitted — it just evicts everything else; refusing it
        would make its graph permanently unservable.
    estimate:
        Size estimator ``session -> int``; defaults to
        :meth:`Session.estimated_bytes`. Tests inject deterministic
        estimators here.
    registry:
        Solver registry handed to newly constructed sessions.
    """

    def __init__(
        self,
        max_sessions: int | None = None,
        max_bytes: int | None = None,
        *,
        estimate: Callable[[Session], int] | None = None,
        registry: SolverRegistry = REGISTRY,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise InvalidParameterError(
                f"max_sessions must be >= 1 or None, got {max_sessions}"
            )
        if max_bytes is not None and max_bytes < 0:
            raise InvalidParameterError(
                f"max_bytes must be >= 0 or None, got {max_bytes}"
            )
        self.max_sessions = max_sessions
        self.max_bytes = max_bytes
        # Non-blocking by default: a session busy computing a substrate
        # reports its last measured size instead of stalling the survey
        # (eviction decisions and stats tolerate slightly stale sizes).
        self._estimate = estimate or (
            lambda session: session.estimated_bytes(blocking=False)
        )
        self._registry = registry
        self._lock = make_rlock("SessionPool._lock")
        self._sessions: OrderedDict[str, Session] = OrderedDict()
        self.stats: dict[str, int] = {"hits": 0, "misses": 0, "evictions": 0}

    # ------------------------------------------------------------------
    # Lookup / admission
    # ------------------------------------------------------------------
    def get(self, graph: Graph, *, fingerprint: str | None = None) -> Session:
        """Return the warm session for ``graph``, admitting one on a miss.

        ``fingerprint`` may be passed when the caller has already hashed
        the graph (the server caches fingerprints per registered
        tenant); it must match the graph's true fingerprint.
        """
        key = fingerprint if fingerprint is not None else graph_fingerprint(graph)
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
                self.stats["hits"] += 1
                return session
            self.stats["misses"] += 1
            session = Session(graph, registry=self._registry)
            # Hand the already-computed fingerprint to the session so
            # Session.fingerprint() never re-hashes pooled graphs.
            session._fingerprint = key
            self._sessions[key] = session
        # Budget enforcement runs *outside* the pool lock: measuring a
        # session may block on its substrate lock (a solve in progress),
        # and stalling every pool.get behind that would stall the whole
        # scheduler. See _enforce_budgets for the re-check discipline.
        self._enforce_budgets(newest=key)
        return session

    def lookup(self, fingerprint: str) -> Session | None:
        """The resident session for ``fingerprint``, or ``None`` (no admit)."""
        with self._lock:
            session = self._sessions.get(fingerprint)
            if session is not None:
                self._sessions.move_to_end(fingerprint)
                self.stats["hits"] += 1
            return session

    def __contains__(self, fingerprint: object) -> bool:
        with self._lock:
            return fingerprint in self._sessions

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _enforce_budgets(self, newest: str) -> None:
        """Evict LRU sessions until both the count and byte budgets hold.

        Called *without* the lock held. Sizes are re-measured on each
        pass because cached substrates grow between admissions, and the
        measurement happens outside the pool lock (a session mid-solve
        holds its substrate lock for seconds; only the caller asking for
        *that* session's size should wait on it, not the whole pool).
        Between measuring and evicting, membership is re-checked under
        the lock, and ``newest`` (the session being admitted) is never
        evicted.
        """
        with self._lock:
            if self.max_sessions is not None:
                while len(self._sessions) > self.max_sessions:
                    victim = next(
                        (key for key in self._sessions if key != newest), None
                    )
                    if victim is None:
                        break
                    del self._sessions[victim]
                    self.stats["evictions"] += 1
        if self.max_bytes is None:
            return
        while True:
            with self._lock:
                # LRU-to-MRU order is the eviction policy's contract;
                # which session is evicted never reaches a result.
                snapshot = list(self._sessions.items())  # repro-lint: ignore=iterorder
            if len(snapshot) <= 1:
                return
            total = sum(self._estimate(s) for _, s in snapshot)
            if total <= self.max_bytes:
                return
            victim = next((key for key, _ in snapshot if key != newest), None)
            if victim is None:
                return
            with self._lock:
                if victim in self._sessions:
                    del self._sessions[victim]
                    self.stats["evictions"] += 1

    def evict(self, fingerprint: str) -> bool:
        """Drop one session by fingerprint; ``True`` if it was resident."""
        with self._lock:
            if fingerprint in self._sessions:
                del self._sessions[fingerprint]
                self.stats["evictions"] += 1
                return True
            return False

    def clear(self) -> int:
        """Drop every resident session; returns how many were evicted."""
        with self._lock:
            count = len(self._sessions)
            self._sessions.clear()
            self.stats["evictions"] += count
            return count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        """Estimated resident size of all pooled sessions, re-measured now.

        The estimators run outside the pool lock (they may wait on a
        busy session's substrate lock), so other pool traffic proceeds
        while a size survey is in flight.
        """
        with self._lock:
            # Order-independent accumulation into a size total.
            sessions = list(self._sessions.values())  # repro-lint: ignore=iterorder
        return sum(self._estimate(s) for s in sessions)

    def fingerprints(self) -> tuple[str, ...]:
        """Resident fingerprints in LRU-to-MRU order."""
        with self._lock:
            return tuple(self._sessions)

    def info(self) -> dict:
        """Counters plus current occupancy (for the ``stats`` endpoint).

        ``memo_entries``/``memo_hits``/``memo_misses`` sum the result
        memos of the resident sessions (see
        :meth:`repro.core.session.Session.memo_info`); an evicted
        session takes its share with it.
        """
        with self._lock:
            # Order-independent sums over the resident sessions.
            sessions = list(self._sessions.values())  # repro-lint: ignore=iterorder
        # Measured outside the lock, like total_bytes().
        total = sum(self._estimate(s) for s in sessions)
        memo = {"memo_entries": 0, "memo_hits": 0, "memo_misses": 0}
        for session in sessions:
            for key, value in session.memo_info().items():
                memo[key] += value
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "max_sessions": self.max_sessions,
                "bytes": total,
                "max_bytes": self.max_bytes,
                **memo,
                **self.stats,
            }

    def __repr__(self) -> str:
        return (
            f"SessionPool(sessions={len(self)}, max_sessions={self.max_sessions}, "
            f"max_bytes={self.max_bytes})"
        )
