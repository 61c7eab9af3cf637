"""Session-oriented solver API with reusable preprocessing.

A :class:`Session` binds to one :class:`~repro.graph.graph.Graph` and
memoizes the shared substrates every solver needs — core numbers, the
degeneracy ordering, oriented DAGs, and per-k node scores and clique
listings — so repeated ``session.solve(k=..., method=...)`` calls reuse
work instead of recomputing it. This is the structural change the
service roadmap builds on: answering many clique-packing queries over
the same social graph amortises the preprocessing that dominates
runtime across methods and k values.

Typical use::

    from repro import Session

    session = Session(graph)
    lp = session.solve(k=4)                  # pays the k=4 score pass
    gc = session.solve(k=4, method="gc")     # reuses it, pays the listing
    opt = session.solve(k=4, method="opt")   # reuses the listing
    batch = session.solve_many([3, 4, 5], deadline=30.0)

The legacy one-shot :func:`repro.core.api.find_disjoint_cliques` remains
fully supported; it simply delegates to a throwaway session.

Cache invariants: all cached substrates are read-only after
construction (solvers copy the DAG out-sets, keep their own FindMin
validity flags and never mutate score arrays or clique lists), and
nothing here depends on the method tag — only on ``(graph, k)`` and
the orientation name — so any method mix shares them safely.

Result memo: on top of the substrates, a session keeps the answer of
every *completed deterministic* solve, keyed by ``(method tag, k,
options)`` (see :func:`memo_key`), so a repeated ``solve`` skips the
engine and the FindMin drain. A solve with a rank-array or callable
``order``, or with a ``time_budget`` (whether it completes depends on
wall time), is never memoized; warm-started and restored tasks neither
read nor fill the memo, and partial answers never enter it. Every hit
hands out its own copy of the result.

Thread safety: a session may be shared by concurrent solves (the
serving layer in :mod:`repro.serve` does exactly that). Every
:class:`Preprocessing` accessor takes the cache's re-entrant lock
around the check-compute-store sequence, so an expensive substrate is
computed exactly once no matter how many threads race for it, and the
``stats`` counters stay consistent. Solver execution itself runs
outside the lock and only *reads* the returned substrates, which are
immutable by the cache invariant above.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.concurrency import make_lock, make_rlock
from repro.errors import InvalidParameterError, OutOfMemoryError, OutOfTimeError
from repro.graph.graph import Graph
from repro.graph import kcore
from repro.graph import ordering
from repro.graph.dag import OrientedGraph
from repro.cliques import counting
from repro.cliques import listing
from repro.core.lightweight import ScoreOrientedCSR
from repro.core.registry import REGISTRY, Method, SolveOptions, SolverRegistry
from repro.core.result import CliqueSetResult
from repro.core.task import SolveTask, normalize_warm_start

if TYPE_CHECKING:  # deferred at runtime: the maintainer sits above core
    from repro.analysis.bounds import OptimumBounds
    from repro.graph.dag import OrientedCSR
    from repro.dynamic.maintainer import DynamicDisjointCliques


class Preprocessing:
    """Memoized per-graph substrates shared by all solver methods.

    Every accessor is compute-on-first-use; subsequent calls are cache
    hits. ``stats`` counts the expensive passes actually performed
    (clique enumerations, score passes, orientations) plus cache hits,
    so tests and services can assert work is not repeated.

    All accessors are thread-safe: the internal re-entrant lock guards
    the whole check-compute-store sequence, so under concurrency each
    substrate is computed once and handed to every waiter.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._lock = make_rlock("Preprocessing._lock")
        self._last_estimate = 0
        self._core: np.ndarray | None = None
        self._ranks: dict[str, np.ndarray] = {}
        self._oriented: dict[str, OrientedGraph] = {}
        self._score_oriented: dict[int, ScoreOrientedCSR] = {}
        self._scores: dict[int, np.ndarray] = {}
        self._cliques: dict[int, list[tuple[int, ...]]] = {}
        self._counts: dict[int, int] = {}
        self._bounds: dict[int, OptimumBounds] = {}
        self.stats: dict[str, int] = {
            "clique_listings": 0,
            "score_passes": 0,
            "count_passes": 0,
            "orientations": 0,
            "csr_builds": 0,
            "core_decompositions": 0,
            "cache_hits": 0,
        }

    # -- orderings and orientations ------------------------------------
    def core_numbers(self) -> np.ndarray:
        """Core number per node (cached k-core decomposition)."""
        with self._lock:
            if self._core is None:
                self._core = kcore.core_numbers(self.graph)
                self.stats["core_decompositions"] += 1
            else:
                self.stats["cache_hits"] += 1
            return self._core

    def rank(self, order: object = "degeneracy") -> np.ndarray:
        """Rank array for a named ordering (cached per name)."""
        if not isinstance(order, str):
            return ordering.resolve(order, self.graph)
        with self._lock:
            cached = self._ranks.get(order)
            if cached is None:
                cached = ordering.resolve(order, self.graph)
                self._ranks[order] = cached
            else:
                self.stats["cache_hits"] += 1
            return cached

    def oriented(self, order: object = "degeneracy") -> OrientedGraph:
        """DAG orientation under ``order`` (cached for named orderings).

        Rank arrays and callables are oriented on the fly without
        caching (they have no stable cache key).
        """
        if not isinstance(order, str):
            return OrientedGraph(self.graph, self.rank(order))
        with self._lock:
            cached = self._oriented.get(order)
            if cached is None:
                cached = OrientedGraph(self.graph, self.rank(order))
                self._oriented[order] = cached
                self.stats["orientations"] += 1
            else:
                self.stats["cache_hits"] += 1
            return cached

    def score_oriented(self, k: int) -> ScoreOrientedCSR:
        """FindMin's score-oriented CSR, arc masks and HeapInit for ``k``
        (cached per k).

        Algorithm 3's FindMin phase walks the scored subgraph (no node
        of score 0, which is in no k-clique) oriented by node score
        (Definition 5), which depends on ``k`` but not on the solver
        options — so repeated ``l``/``lp`` solves and tasks over one
        session share one :class:`~repro.core.lightweight.ScoreOrientedCSR`
        instead of rebuilding it per call; ``findmin_calls`` and
        ``branches_pruned`` count its searches and ``lp`` cuts there.
        The substrate also holds the cold
        HeapInit (each root's minimum-key clique and the FindMin counts,
        from one data-parallel pass), so every ``l``/``lp`` solve or
        task without a warm start begins at the drain; a warm start
        reruns HeapInit over the residual graph. The build is one
        non-preemptible step: on large graphs its HeapInit pass, which
        also yields the arc masks, bounds how long a resumable task
        blocks before its first preemptible step.
        """
        with self._lock:
            cached = self._score_oriented.get(k)
            if cached is None:
                cached = ScoreOrientedCSR(self.graph, self.scores(k), k)
                self._score_oriented[k] = cached
                self.stats["orientations"] += 1
            else:
                self.stats["cache_hits"] += 1
            return cached

    def oriented_csr(self, order: object = "degeneracy") -> "OrientedCSR":
        """Oriented-CSR arrays for ``order`` (cached with the DAG).

        The :class:`~repro.graph.dag.OrientedCSR` twin is built lazily
        on the cached :class:`~repro.graph.dag.OrientedGraph` and shared
        by every clique pass under the same orientation.
        """
        with self._lock:
            dag = self.oriented(order)
            if dag.has_csr:
                self.stats["cache_hits"] += 1
            else:
                self.stats["csr_builds"] += 1
            return dag.csr()

    # -- per-k clique substrates ---------------------------------------
    def scores(self, k: int) -> np.ndarray:
        """Node scores ``s_n`` for ``k`` (Definition 5), cached per k.

        When the k-clique listing is already cached the scores are
        derived from it by accumulation — no second enumeration.
        """
        with self._lock:
            cached = self._scores.get(k)
            if cached is not None:
                self.stats["cache_hits"] += 1
                return cached
            stored = self._cliques.get(k)
            if stored is not None:
                scores = np.zeros(self.graph.n, dtype=np.int64)
                for clique in stored:
                    for u in clique:
                        scores[u] += 1
            else:
                scores = counting.node_scores(self.graph, k, dag=self._oriented_for(k))
                self.stats["score_passes"] += 1
            self._scores[k] = scores
            return scores

    def _oriented_for(self, k: int) -> OrientedGraph:
        """Cached degeneracy DAG, pre-building its CSR twin when a
        ``k``-clique pass will read it (keeps ``csr_builds`` accounting
        accurate regardless of which accessor triggers the build)."""
        if k >= 3:
            self.oriented_csr()
        return self.oriented()

    def cliques(self, k: int, max_cliques: int | None = None) -> list[tuple[int, ...]]:
        """All k-cliques as canonical sorted tuples, cached per k.

        ``max_cliques`` keeps the paper's OOM semantics: the enumeration
        aborts with :class:`OutOfMemoryError` as soon as the budget is
        exceeded (nothing is cached on failure), and a cached listing
        larger than the budget raises the same error. The cached list is
        sorted lexicographically, so its order does not depend on the
        engine's enumeration order.
        """
        with self._lock:
            stored = self._cliques.get(k)
            if stored is not None:
                self.stats["cache_hits"] += 1
                self._check_clique_budget(len(stored), k, max_cliques)
                return stored
            stored = []
            for clique in listing.iter_cliques_oriented(self._oriented_for(k), k):
                if max_cliques is not None and len(stored) >= max_cliques:
                    raise OutOfMemoryError(
                        f"clique listing exceeded its budget of {max_cliques} (k={k})"
                    )
                stored.append(tuple(sorted(clique)))
            stored.sort()
            self.stats["clique_listings"] += 1
            self._cliques[k] = stored
            self._counts[k] = len(stored)
            return stored

    @staticmethod
    def _check_clique_budget(count: int, k: int, max_cliques: int | None) -> None:
        if max_cliques is not None and count > max_cliques:
            raise OutOfMemoryError(
                f"clique listing exceeded its budget of {max_cliques} (k={k}): "
                f"{count} cliques"
            )

    def clique_count(self, k: int) -> int:
        """Number of k-cliques, cached; counts without storing if unknown."""
        with self._lock:
            cached = self._counts.get(k)
            if cached is not None:
                self.stats["cache_hits"] += 1
                return cached
            dag = self._oriented_for(k) if k >= 3 else None
            count = listing.count_cliques(self.graph, k, dag=dag)
            self.stats["count_passes"] += 1
            self._counts[k] = count
            return count

    def bounds(self, k: int) -> OptimumBounds:
        """Certified upper bounds on the optimum for ``k``, cached per k
        (see :func:`repro.analysis.bounds.optimum_upper_bounds`); they
        read the cached scores and clique count."""
        from repro.analysis.bounds import optimum_upper_bounds

        with self._lock:
            cached = self._bounds.get(k)
            if cached is not None:
                self.stats["cache_hits"] += 1
                return cached
            cached = optimum_upper_bounds(
                self.graph, k, scores=self.scores(k), total_cliques=self.clique_count(k)
            )
            self._bounds[k] = cached
            return cached

    def cached_ks(self) -> tuple[int, ...]:
        """The k values with at least one cached per-k substrate."""
        with self._lock:
            return tuple(sorted(set(self._scores) | set(self._cliques)))

    def cache_info(self) -> dict:
        """A snapshot of cache contents and work counters."""
        with self._lock:
            return {
                "ks_with_scores": tuple(sorted(self._scores)),
                "ks_with_cliques": tuple(sorted(self._cliques)),
                "orientations": tuple(sorted(self._oriented)),
                "csr_orientations": tuple(
                    sorted(name for name, dag in self._oriented.items() if dag.has_csr)
                ),
                "core_numbers": self._core is not None,
                **self.stats,
            }

    def estimated_bytes(self, blocking: bool = True) -> int:
        """Rough resident size of the graph plus every cached substrate.

        The estimate is intentionally cheap (no ``sys.getsizeof`` walks):
        numpy arrays report ``nbytes`` exactly, while Python-object
        substrates (adjacency sets, clique tuples) use fixed per-entry
        costs calibrated to CPython 3.11. The graph is charged for what
        it holds (:meth:`~repro.graph.graph.Graph.estimated_bytes`): its
        CSR always, its neighbour sets only once built. The serving layer's
        :class:`~repro.serve.pool.SessionPool` uses this for its byte
        budget, so what matters is that the estimate is monotone in the
        real footprint and stable across processes, not byte-exact.

        With ``blocking=False``, a cache busy computing a substrate (the
        lock is held for the whole pass) is not waited for: the last
        measured size is returned instead — or the graph-only baseline
        if the session was never measured. Latency-sensitive callers
        (pool eviction surveys, the ``stats`` endpoint) use this so one
        long enumeration never stalls them.
        """
        graph = self.graph
        total = graph.estimated_bytes()
        if not self._lock.acquire(blocking=blocking):
            return self._last_estimate if self._last_estimate else total
        try:
            if self._core is not None:
                total += int(self._core.nbytes)
            for rank in self._ranks.values():
                total += int(rank.nbytes)
            for dag in self._oriented.values():
                total += int(dag.rank.nbytes)
                if dag.has_out:
                    total += graph.n * 64 + graph.m * 60
                if dag.has_csr:
                    csr = dag.csr()
                    total += int(csr.indptr.nbytes + csr.cols.nbytes)
            for substrate in self._score_oriented.values():
                total += substrate.estimated_bytes()
            for scores in self._scores.values():
                total += int(scores.nbytes)
            for k, cliques in self._cliques.items():
                total += len(cliques) * (56 + 28 * max(k, 1))
            self._last_estimate = total
        finally:
            self._lock.release()
        return total


@dataclass(frozen=True)
class SolveRequest:
    """One entry of a :meth:`Session.solve_many` batch."""

    k: int
    method: str = "lp"
    options: dict = field(default_factory=dict)


def _coerce_request(item: object) -> SolveRequest:
    """Accept SolveRequest | int k | (k,) | (k, method) | (k, method, opts) | dict."""
    if isinstance(item, SolveRequest):
        return item
    if isinstance(item, dict):
        return SolveRequest(**item)
    if isinstance(item, tuple):
        if not 1 <= len(item) <= 3:
            raise InvalidParameterError(
                f"request tuple must be (k[, method[, options]]), got {item!r}"
            )
        k = item[0]
        method = item[1] if len(item) > 1 else "lp"
        options = item[2] if len(item) > 2 else {}
        return SolveRequest(k, method, dict(options))
    try:
        return SolveRequest(item.__index__())
    except AttributeError:
        raise InvalidParameterError(
            f"cannot interpret {item!r} as a solve request; pass a k, a "
            "(k, method) tuple, a dict, or a SolveRequest"
        ) from None


def memo_key(method: Method, k: int, options: SolveOptions) -> tuple | None:
    """The result memo's key for a solve, or ``None`` when it is not memoized.

    The key keeps the method tag, ``k`` and every validated option
    (defaults included). A solve is memoized only when each option is
    ``None``, a bool, an int, a float or a string: a rank-array or
    callable ``order`` has no stable key. A ``time_budget`` also opts a
    solve out, because whether it completes depends on wall time: no
    budgeted run is stored and no budgeted request reads the memo.
    """
    if getattr(options, "time_budget", None) is not None:
        return None
    values = tuple((f.name, getattr(options, f.name)) for f in fields(options))
    if all(v is None or isinstance(v, (bool, int, float, str)) for _, v in values):
        return (method.tag, k, values)
    return None


class Session:
    """A solver session bound to one graph, reusing preprocessing.

    Parameters
    ----------
    graph:
        The undirected input graph (use ``DynamicGraph.snapshot()`` for
        dynamic graphs; a fresh session is needed after updates because
        cached substrates describe one immutable snapshot).
    registry:
        Method registry to dispatch through (default: the package
        :data:`~repro.core.registry.REGISTRY`).
    default_method:
        Tag used when :meth:`solve` is called without ``method``.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        registry: SolverRegistry = REGISTRY,
        default_method: str = "lp",
    ) -> None:
        if not isinstance(graph, Graph):
            raise InvalidParameterError(
                f"graph must be a repro Graph, got {type(graph).__name__}; "
                "call .snapshot() on DynamicGraph first"
            )
        self.graph = graph
        self.registry = registry
        self.default_method = registry.get(default_method).tag
        self.prep = Preprocessing(graph)
        self._fingerprint: str | None = None
        # Completed solves by memo_key, their summed estimated bytes
        # and the lookup counts.
        self._memo: dict[tuple, CliqueSetResult] = {}
        self._memo_bytes = 0
        self._memo_hits = 0
        self._memo_misses = 0
        # Guards the fingerprint and the result memo; the session pool
        # shares sessions between worker threads.
        self._lock = make_lock("Session._lock")

    # -- solving -------------------------------------------------------
    @staticmethod
    def _check_k(k: object) -> int:
        try:
            k = int(k.__index__())
        except AttributeError:
            raise InvalidParameterError(
                f"k must be an integer >= 2, got {k!r}"
            ) from None
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        return k

    def solve(
        self, k: int, method: str | None = None, **options: object
    ) -> CliqueSetResult:
        """Find a (near-)maximum disjoint k-clique set, reusing caches.

        ``method`` is a registry tag (default: the session's
        ``default_method``); ``options`` are validated against that
        method's typed options class — unknown names raise
        :class:`InvalidParameterError` listing the valid ones. A
        resumable method runs its :meth:`task` to completion, so a
        ``time_budget`` bounds the seconds spent stepping (see
        :meth:`repro.core.task.SolveTask.step`); ``gc`` and ``opt`` run
        their registered blocking function. A repeat of a completed
        solve is answered from the result memo (see :func:`memo_key`)
        with a copy of the first answer.
        """
        k = self._check_k(k)
        m = self.registry.get(method if method is not None else self.default_method)
        opts = m.parse_options(options)
        key = memo_key(m, k, opts)
        result = self._recall(key)
        if result is not None:
            return result
        if m.run is None:
            return self._open_task(m, k, opts).run()
        result = m.run(self.prep, k, opts)
        self._remember(key, result)
        return result

    def recall(
        self, k: int, method: str | None = None, **options: object
    ) -> CliqueSetResult | None:
        """A copy of the memoized result of a completed :meth:`solve` with
        these arguments, or ``None`` (see :func:`memo_key`).

        The serving layer answers a repeated request this way without
        opening a task. A lookup of a memoizable key counts as a memo
        hit or miss in :meth:`cache_info`.
        """
        k = self._check_k(k)
        m = self.registry.get(method if method is not None else self.default_method)
        return self._recall(memo_key(m, k, m.parse_options(options)))

    def _recall(self, key: tuple | None) -> CliqueSetResult | None:
        if key is None:
            return None
        with self._lock:
            stored = self._memo.get(key)
            if stored is None:
                self._memo_misses += 1
            else:
                self._memo_hits += 1
        return None if stored is None else stored.copy()

    def _remember(self, key: tuple | None, result: CliqueSetResult) -> None:
        """Memoize a completed solve's ``result`` under ``key`` (kept
        once: of two racing solves of one key, the first to finish
        stays)."""
        if key is None:
            return
        entry = result.copy()
        # Per clique a frozenset, a list slot and k ints, plus a
        # kilobyte for the result object and its stats.
        cliques = entry.cliques
        size = 1024 + len(cliques) * (
            sys.getsizeof(cliques[0]) + 8 + 28 * entry.k if cliques else 0
        )
        with self._lock:
            if key not in self._memo:
                self._memo[key] = entry
                self._memo_bytes += size

    def task(
        self,
        k: int,
        method: str | None = None,
        *,
        warm_start: Iterable[Iterable[int]] | None = None,
        **options: object,
    ) -> SolveTask:
        """Open a resumable :class:`~repro.core.task.SolveTask`.

        The task wraps the method's step engine over this session's
        shared preprocessing: drive it with ``step()``/``run()``,
        observe ``best()``/``bound()`` at any boundary, ``pause()`` /
        ``resume()`` it, and ``checkpoint()`` it across processes.
        :meth:`solve` runs exactly this task to completion, so both
        give the same solution and stats for the same arguments.

        Parameters
        ----------
        k / method / options:
            As for :meth:`solve`; the method must be resumable
            (``Method.resumable`` — ``hg``/``l``/``lp``/``opt-bb``).
            A ``time_budget`` option bounds the summed seconds of the
            task's ``step()`` calls; once it is spent, ``step()`` raises
            :class:`~repro.errors.OutOfTimeError` carrying ``best()``.
        warm_start:
            Optional previous solution (a
            :class:`~repro.core.result.CliqueSetResult` or iterable of
            cliques) to seed the engine with; cliques no longer valid in
            this session's graph are silently skipped, while a node that
            is not an integer raises :class:`InvalidParameterError`.
            Greedy engines keep the seed in the solution; the exact B&B
            uses it as its starting incumbent.
        """
        k = self._check_k(k)
        m = self.registry.get(method if method is not None else self.default_method)
        seed = normalize_warm_start(warm_start)
        return self._open_task(m, k, m.parse_options(options), seed)

    def _open_task(
        self,
        m: Method,
        k: int,
        opts: SolveOptions,
        seed: list[frozenset[int]] | None = None,
    ) -> SolveTask:
        """A task over ``m``'s engine, built from this session's caches."""
        if m.engine is None:
            resumable = tuple(t.tag for t in self.registry if t.resumable)
            raise InvalidParameterError(
                f"method {m.tag!r} is not resumable; resumable methods: "
                f"{resumable}"
            )
        engine = m.engine(self.prep, k, opts, warm_start=seed)
        # Only a cold start's answer is the solve's answer.
        key = memo_key(m, k, opts) if seed is None else None
        return SolveTask(self, m, k, opts, engine, memo_key=key)

    def restore_task(self, checkpoint: Mapping) -> SolveTask:
        """Revive a :meth:`~repro.core.task.SolveTask.checkpoint` here.

        The checkpoint must come from a session over an equal graph
        (matching content fingerprint); continuing the restored task
        produces the same final solution and stats as the uninterrupted
        run. Returns the restored :class:`~repro.core.task.SolveTask`.
        """
        return SolveTask.restore(self, checkpoint)

    def solve_many(
        self,
        requests: Iterable,
        *,
        deadline: float | None = None,
        on_progress: Callable[[int, int, SolveRequest, CliqueSetResult], None] | None = None,
    ) -> list[CliqueSetResult]:
        """Solve a batch of requests against the shared caches.

        Parameters
        ----------
        requests:
            Iterable of :class:`SolveRequest`, plain ``k`` ints,
            ``(k, method[, options])`` tuples, or dicts.
        deadline:
            Wall-clock budget in seconds for the whole batch. When the
            elapsed time reaches it before a request starts,
            :class:`OutOfTimeError` is raised naming how many solves
            completed (use ``on_progress`` to keep partial results).
            The remaining budget is also forwarded as ``time_budget``
            to methods whose options have one
            (``Method.supports_time_budget``), so a single long exact
            solve stops rather than overrunning the deadline; an
            explicit ``time_budget`` in a request's options takes
            precedence.
        on_progress:
            ``hook(done, total, request, result)`` called after each
            completed solve.
        """
        reqs = [_coerce_request(item) for item in requests]
        start = time.monotonic()
        results: list[CliqueSetResult] = []
        for index, req in enumerate(reqs):
            options = dict(req.options)
            if deadline is not None:
                remaining = deadline - (time.monotonic() - start)
                if remaining <= 0:
                    raise OutOfTimeError(
                        f"solve_many exceeded its {deadline}s deadline after "
                        f"{index} of {len(reqs)} solves"
                    )
                method = self.registry.get(
                    req.method if req.method is not None else self.default_method
                )
                if method.supports_time_budget and "time_budget" not in options:
                    options["time_budget"] = remaining
            result = self.solve(req.k, req.method, **options)
            results.append(result)
            if on_progress is not None:
                on_progress(index + 1, len(reqs), req, result)
        return results

    # -- cache management ----------------------------------------------
    def warm(self, ks: Sequence[int], *, cliques: bool = False) -> "Session":
        """Precompute per-k substrates (scores; listings when asked).

        Useful before serving latency-sensitive queries or before timing
        solves whose preprocessing should not be on the clock. The
        oriented-CSR substrate is built (and cached) as a side effect,
        so later solves skip that step too.
        """
        for k in ks:
            k = self._check_k(k)
            if cliques:
                self.prep.cliques(k)
            self.prep.scores(k)
        return self

    def dynamic(
        self,
        k: int,
        method: str | None = None,
        *,
        warm_start: Iterable[Iterable[int]] | None = None,
        **options: object,
    ) -> "DynamicDisjointCliques":
        """Construct a dynamic maintainer seeded from this session.

        The initial static solve runs through :meth:`solve`, so it
        reuses every cached substrate (scores, listings, orientations)
        instead of re-deriving them the way a bare
        :class:`~repro.dynamic.maintainer.DynamicDisjointCliques`
        constructor would. The maintainer owns a private
        :class:`~repro.graph.dynamic.DynamicGraph` copy and evolves
        independently; the session (and its caches) keep describing the
        original immutable snapshot.

        ``warm_start`` warm-restarts the initial solve from a previous
        (e.g. pre-update) solution: the solve runs as a
        :meth:`task` seeded with the still-valid cliques, so after a
        burst of graph updates a new maintainer starts from the old
        answer instead of from scratch. Requires a method that supports
        warm starts (``hg``/``l``/``lp``/``opt-bb``). A result that is
        not a valid, maximal start raises :class:`~repro.errors.SolutionError`.

        Returns
        -------
        repro.dynamic.maintainer.DynamicDisjointCliques
        """
        from repro.dynamic.maintainer import DynamicDisjointCliques

        k = self._check_k(k)
        if warm_start is not None:
            result = self.task(k, method, warm_start=warm_start, **options).run()
        else:
            result = self.solve(k, method, **options)
        return DynamicDisjointCliques(self.graph, k, initial=result)

    def method(self, tag: str) -> Method:
        """Look up a :class:`Method` (metadata) from this session's registry."""
        return self.registry.get(tag)

    def cache_info(self) -> dict:
        """Snapshot of the preprocessing cache (see
        :meth:`Preprocessing.cache_info`) and of the result memo
        (:meth:`memo_info`)."""
        return {**self.prep.cache_info(), **self.memo_info()}

    def memo_info(self) -> dict[str, int]:
        """The result memo's ``memo_entries``, ``memo_hits`` and
        ``memo_misses``; waits on no substrate computation."""
        with self._lock:
            return {
                "memo_entries": len(self._memo),
                "memo_hits": self._memo_hits,
                "memo_misses": self._memo_misses,
            }

    def fingerprint(self) -> str:
        """Content hash of the bound graph's edge set (cached).

        Two sessions over equal graphs — same node count, same edge set,
        regardless of construction order — share the fingerprint, which
        is how :class:`repro.serve.pool.SessionPool` detects that a
        request can reuse an already-warm session.
        """
        if self._fingerprint is None:
            from repro.graph.fingerprint import graph_fingerprint

            with self._lock:
                if self._fingerprint is None:
                    self._fingerprint = graph_fingerprint(self.graph)
        return self._fingerprint

    def estimated_bytes(self, blocking: bool = True) -> int:
        """Rough resident size (see :meth:`Preprocessing.estimated_bytes`),
        the result memo included."""
        return self.prep.estimated_bytes(blocking=blocking) + self._memo_bytes

    def __repr__(self) -> str:
        return (
            f"Session(n={self.graph.n}, m={self.graph.m}, "
            f"cached_ks={self.prep.cached_ks()})"
        )
