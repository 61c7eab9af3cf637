"""Algorithm 3 — the lightweight implementation (paper tags ``L``/``LP``).

Produces the same solution as Algorithm 2 (Theorem 4) with ``O(n + m)``
space:

1. Compute node scores during one clique enumeration (no storage).
2. Orient the graph by ascending node score (ties by id).
3. For each DAG root ``u``, find the *minimum-key* k-clique inside its
   out-neighbourhood (procedure ``FindMin``) and push it into a heap.
4. Repeatedly pop the globally minimal clique. If all its nodes are
   still valid it joins the solution and its nodes are removed; if it is
   stale but its root survives, the root's local minimum is recomputed
   over the remaining valid nodes and re-pushed.

``LP`` additionally prunes ``FindMin`` branches whose partial score plus
the next node's score already reaches the best key's score — safe because
every node in a k-clique has score >= 1, so completing any pruned branch
strictly exceeds the current minimum (it can't even tie, hence the exact
Theorem 4 equality is preserved; see ``tests/test_theorem4.py``).

The heap key is the package-wide deterministic clique key
``(clique score, sorted node tuple)``.

``backend`` (``"auto" | "sets" | "csr"``) selects only the engine of
the score-counting pass; the FindMin walk always runs on live
out-neighbour sets (:class:`_FindMin`), visiting candidates in ascending
order, so the solution *and* the ``findmin_calls``/``branches_pruned``
counters are backend-independent. HeapInit runs sequentially, one root
per engine tick (the paper runs it in parallel; here one FindMin costs
microseconds, so worker start-up would dominate).
"""

from __future__ import annotations

import heapq
from typing import Iterable

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.dag import OrientedGraph
from repro.graph.graph import Graph
from repro.graph.ordering import OrderSpec, by_score
from repro.cliques.counting import node_scores
from repro.cliques.csr_kernels import resolve_backend
from repro.core.result import CliqueSetResult, is_seedable_clique
from repro.core.scores import CliqueKey

_INF_KEY: CliqueKey = (np.iinfo(np.int64).max, ())

#: Engine phases in run order; :meth:`LightweightEngine.load_state`
#: rejects any other value.
_PHASES = ("init", "drain", "done")


class _FindMin:
    """Recursive local-minimum clique search with optional score pruning.

    ``out`` holds *live* out-neighbour sets that :meth:`invalidate`
    physically shrinks as cliques enter the solution.
    """

    __slots__ = ("out", "scores", "prune", "stats", "graph", "valid", "best_key", "best")

    def __init__(
        self,
        out: list[set[int]],
        scores: np.ndarray,
        prune: bool,
        stats: dict[str, float],
        graph: Graph,
        valid: list[bool],
    ) -> None:
        self.out = out
        self.scores = scores
        self.prune = prune
        self.stats = stats
        self.graph = graph
        self.valid = valid
        self.best_key: CliqueKey = _INF_KEY
        self.best: tuple[int, ...] | None = None

    def live_out_degree(self, u: int) -> int:
        """Number of still-valid out-neighbours of ``u``."""
        return len(self.out[u])

    def alive(self, v: int) -> bool:
        """Whether ``v`` is still available for a clique."""
        return self.valid[v]

    def invalidate(self, clique: Iterable[int]) -> None:
        """Remove a chosen clique's nodes from the residual graph."""
        for w in clique:
            self.valid[w] = False
        for w in clique:
            for v in self.graph.neighbors(w):
                self.out[v].discard(w)
            self.out[w].clear()

    def search(self, root: int, k: int) -> tuple[CliqueKey, tuple[int, ...]] | None:
        """Minimum-key k-clique rooted at ``root``, or ``None``."""
        self.stats["findmin_calls"] += 1
        self.best_key = _INF_KEY
        self.best = None
        candidates = self.out[root]
        if len(candidates) >= k - 1:
            self._walk([root], candidates, k - 1, int(self.scores[root]))
        if self.best is None:
            return None
        return self.best_key, self.best

    def _walk(
        self, prefix: list[int], candidates: set[int], need: int, score_sum: int
    ) -> None:
        out = self.out
        scores = self.scores
        best_score = self.best_key[0]
        if need == 1:
            # Only reachable for k = 2 (greedy matching degenerate case).
            for u in candidates:
                total = score_sum + int(scores[u])
                if total > best_score:
                    continue
                clique = tuple(sorted(prefix + [u]))
                key = (total, clique)
                if key < self.best_key:
                    self.best_key = key
                    self.best = clique
                    best_score = total
            return
        if need == 2:
            for u in sorted(candidates):
                su = int(scores[u])
                if self.prune and score_sum + su >= best_score:
                    self.stats["branches_pruned"] += 1
                    continue
                for v in candidates & out[u]:
                    total = score_sum + su + int(scores[v])
                    if total > best_score:
                        continue
                    clique = tuple(sorted(prefix + [u, v]))
                    key = (total, clique)
                    if key < self.best_key:
                        self.best_key = key
                        self.best = clique
                        best_score = total
            return
        for u in sorted(candidates):
            su = int(scores[u])
            if self.prune and score_sum + su >= best_score:
                self.stats["branches_pruned"] += 1
                continue
            nxt = candidates & out[u]
            if len(nxt) >= need - 1:
                prefix.append(u)
                self._walk(prefix, nxt, need - 1, score_sum + su)
                prefix.pop()
                best_score = self.best_key[0]


class LightweightEngine:
    """Resumable step machine for Algorithm 3 (one FindMin per tick).

    The run moves through two phases — ``"init"`` (HeapInit, one root
    per tick) and ``"drain"`` (the main loop, one heap pop per tick) —
    then finishes (``"done"``). At every tick boundary ``solution`` is a
    valid disjoint k-clique set; maximality holds once :attr:`finished`
    is true. Solutions and stats are identical to the pre-engine
    monolithic loop for any backend (the drive-to-completion wrapper
    :func:`lightweight` is what the pinned equivalence tests run).

    :meth:`state_dict` captures ``(phase, next root, heap, solution,
    stats)``; substrates (scores, orientation, residual sets) are
    deterministic functions of the graph plus the replayed solution, so
    :meth:`load_state` rebuilds them instead of serialising them.
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        prune: bool = True,
        listing_order: OrderSpec = "degeneracy",
        scores: np.ndarray | None = None,
        backend: str = "auto",
        warm_start: Iterable[Iterable[int]] | None = None,
        oriented: OrientedGraph | None = None,
    ) -> None:
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        score_backend = resolve_backend(backend, graph.m)
        if scores is None:
            scores = node_scores(graph, k, listing_order, backend=score_backend)
        elif len(scores) != graph.n:
            raise InvalidParameterError(
                f"scores has length {len(scores)}, expected n={graph.n}"
            )
        self.graph = graph
        self.k = k
        self.prune = prune
        self.tag = "lp" if prune else "l"
        self.stats: dict[str, float] = {
            "findmin_calls": 0,
            "branches_pruned": 0,
            "heap_pushes": 0,
            "heap_pops": 0,
            "stale_pops": 0,
            "cliques_taken": 0,
        }
        # ``oriented`` must be the by_score orientation of ``graph``
        # under ``scores`` (e.g. Preprocessing.score_oriented); it is
        # only read — the engine works on copies of its out-sets.
        dag = oriented if oriented is not None else OrientedGraph(
            graph, by_score(graph, scores)
        )
        self.finder = _FindMin(
            [set(s) for s in dag.out], scores, prune, self.stats, graph,
            [True] * graph.n,
        )
        self.phase = "init" if graph.n else "done"
        self.next_root = 0
        self.heap: list[tuple[CliqueKey, int, tuple[int, ...]]] = []
        self.solution: list[frozenset[int]] = []

        if warm_start:
            self.stats["warm_seeded"] = 0
            for clique in warm_start:
                if is_seedable_clique(graph, k, clique, self.finder.alive):
                    self.solution.append(frozenset(clique))
                    self.stats["cliques_taken"] += 1
                    self.stats["warm_seeded"] += 1
                    self.finder.invalidate(clique)

    # -- stepping ------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the main loop drained the heap (solution maximal)."""
        return self.phase == "done"

    @property
    def size(self) -> int:
        """Current ``|S|`` of the partial solution."""
        return len(self.solution)

    def tick(self) -> None:
        """Advance one work unit (a HeapInit root or a main-loop pop)."""
        if self.phase == "init":
            u = self.next_root
            self.next_root += 1
            finder, k = self.finder, self.k
            found = finder.search(u, k) if finder.live_out_degree(u) >= k - 1 else None
            if found is not None:
                key, clique = found
                self.heap.append((key, u, clique))
                self.stats["heap_pushes"] += 1
            if self.next_root >= self.graph.n:
                heapq.heapify(self.heap)
                self.phase = "drain" if self.heap else "done"
            return
        if self.phase == "drain":
            finder, k, stats = self.finder, self.k, self.stats
            key, root, clique = heapq.heappop(self.heap)
            stats["heap_pops"] += 1
            if all(finder.alive(v) for v in clique):
                self.solution.append(frozenset(clique))
                stats["cliques_taken"] += 1
                finder.invalidate(clique)
            else:
                stats["stale_pops"] += 1
                if finder.alive(root) and finder.live_out_degree(root) >= k - 1:
                    found = finder.search(root, k)
                    if found is not None:
                        new_key, new_clique = found
                        heapq.heappush(self.heap, (new_key, root, new_clique))
                        stats["heap_pushes"] += 1
            if not self.heap:
                self.phase = "done"

    # -- anytime surface -----------------------------------------------
    def bound(self) -> int:
        """Upper bound on the final ``|S|`` of this run.

        Every future clique is taken from a heap pop, re-pushes never
        grow the heap, and each remaining HeapInit root contributes at
        most one push — so ``|S| + min(free // k, heap + roots left)``
        bounds what draining can still add.
        """
        if self.phase == "done":
            return len(self.solution)
        free = sum(self.finder.valid)
        roots_left = 0
        if self.phase == "init":
            roots_left = self.graph.n - self.next_root
        pending = len(self.heap) + roots_left
        return len(self.solution) + min(free // self.k, pending)

    def snapshot_result(self) -> CliqueSetResult:
        """Current partial solution (always a valid disjoint set)."""
        return CliqueSetResult(
            list(self.solution), k=self.k, method=self.tag, stats=dict(self.stats)
        )

    def result(self) -> CliqueSetResult:
        """Final result; raises unless the run drained to completion."""
        if not self.finished:
            raise InvalidParameterError(
                "engine has not finished; drive tick() to completion first"
            )
        return CliqueSetResult(
            self.solution, k=self.k, method=self.tag, stats=self.stats
        )

    # -- checkpoint / restore ------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable engine state (substrates excluded)."""
        return {
            "phase": self.phase,
            "next_root": self.next_root,
            "heap": [
                [int(key[0]), list(key[1]), int(root), list(clique)]
                for key, root, clique in self.heap
            ],
            "solution": [sorted(c) for c in self.solution],
            "stats": dict(self.stats),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto fresh substrates.

        The residual graph (live out-sets and validity flags) is rebuilt by
        replaying the checkpointed solution's invalidations; heap
        entries keep their total order under JSON round-tripping, so pop
        sequences — and therefore the final solution and stats — are
        identical to an uninterrupted run. An unknown ``phase`` raises
        :class:`InvalidParameterError` (no tick would ever advance it).
        """
        phase = state["phase"]
        if phase not in _PHASES:
            raise InvalidParameterError(
                f"unknown engine phase {phase!r}; expected one of {_PHASES}"
            )
        self.solution = []
        for clique in state["solution"]:
            self.solution.append(frozenset(clique))
            self.finder.invalidate(clique)
        self.heap = [
            ((int(score), tuple(key_clique)), int(root), tuple(clique))
            for score, key_clique, root, clique in state["heap"]
        ]
        heapq.heapify(self.heap)
        self.phase = phase
        self.next_root = int(state["next_root"])
        # In-place replacement keeps the finder's reference valid.
        replaced = {key: value for key, value in state["stats"].items()}
        self.stats.clear()
        self.stats.update(replaced)


def lightweight(
    graph: Graph,
    k: int,
    prune: bool = True,
    listing_order: OrderSpec = "degeneracy",
    scores: np.ndarray | None = None,
    backend: str = "auto",
    oriented: OrientedGraph | None = None,
) -> CliqueSetResult:
    """Compute a disjoint k-clique set with Algorithm 3.

    Parameters
    ----------
    graph:
        Input undirected graph.
    k:
        Clique size, ``>= 2``.
    prune:
        ``True`` → the paper's ``LP`` (score-driven pruning in FindMin);
        ``False`` → plain ``L``. Both return identical solutions.
    listing_order:
        Orientation used only for the score-counting pass.
    scores:
        Precomputed node scores for ``k`` (e.g. from a session cache);
        skips the counting pass and makes ``listing_order`` irrelevant.
    backend:
        ``"auto" | "sets" | "csr"`` — engine of the score-counting pass
        (see :func:`repro.cliques.csr_kernels.resolve_backend`:
        ``"auto"`` picks the CSR kernels on large graphs, where the
        level-bulk vectorisation pays). The FindMin walk is the same
        for every backend, and so are solutions and stats.
    oriented:
        An already-built ascending-score orientation of ``graph`` under
        the same ``scores`` (e.g. from
        :meth:`repro.core.session.Preprocessing.score_oriented`); skips
        the per-call orientation build. Only read, never mutated.

    Returns
    -------
    CliqueSetResult
        Same solution as :func:`repro.core.store_all.store_all_cliques`
        under the shared clique key (Theorem 4), with ``O(n+m)`` space.
        This is the drive-to-completion wrapper over
        :class:`LightweightEngine`; for anytime/interruptible execution
        use :meth:`repro.core.session.Session.task`.
    """
    engine = LightweightEngine(
        graph,
        k,
        prune=prune,
        listing_order=listing_order,
        scores=scores,
        backend=backend,
        oriented=oriented,
    )
    while not engine.finished:
        engine.tick()
    return engine.result()
