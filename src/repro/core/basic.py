"""Algorithm 1 — the basic greedy framework (paper tag: ``HG``).

Orient the graph by a total ordering, scan nodes in ascending rank, and
for each still-valid node grab the *first* k-clique found inside its
out-neighbourhood (procedure ``FindOne``). Chosen cliques are removed
from the graph, pruning the remaining search space. No clique list and
no clique graph are ever materialised: space is ``O(n + m)``.

The ordering is a parameter (the paper evaluates the degree ordering and
discusses its pitfalls in Section I); the result is always a *maximal*
disjoint k-clique set and therefore a k-approximation (Theorem 3).

The scan is implemented as a resumable state machine
(:class:`BasicEngine`): each :meth:`BasicEngine.tick` processes exactly
one node of the scan order, so the engine can be suspended at any
FindOne boundary with a valid (if not yet maximal) partial solution.
:func:`basic_framework` is the drive-to-completion wrapper and returns
results and stats identical to the pre-engine monolithic loop; the
anytime surface lives in :class:`repro.core.task.SolveTask`.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import InvalidParameterError
from repro.graph.dag import OrientedGraph
from repro.graph.ordering import OrderSpec
from repro.graph.graph import Graph
from repro.core.result import CliqueSetResult, checked_solution, is_int, is_seedable_clique


def _find_one(
    out: list[set[int]],
    need: int,
    candidates: set[int],
    prefix: list[int],
    stats: dict[str, float],
) -> list[int] | None:
    """Return the first (need)-clique inside ``candidates``, or ``None``.

    ``candidates`` always equals the intersection of the out-neighbour
    sets of every prefix node, so any ``need`` mutually-out-adjacent nodes
    in it complete the clique. Iteration is over sorted candidates for
    determinism.
    """
    stats["findone_calls"] += 1
    if need == 1:
        return prefix + [min(candidates)] if candidates else None
    if need == 2:
        for u in sorted(candidates):
            common = candidates & out[u]
            if common:
                return prefix + [u, min(common)]
        return None
    for u in sorted(candidates):
        nxt = candidates & out[u]
        if len(nxt) >= need - 1:
            prefix.append(u)
            found = _find_one(out, need - 1, nxt, prefix, stats)
            if found is not None:
                return found
            prefix.pop()
    return None


class BasicEngine:
    """Resumable step machine for Algorithm 1 (one scan node per tick).

    The engine owns the live out-neighbour sets (the paper's residual
    graph); :meth:`tick` advances the ascending-rank scan by one node,
    running FindOne when the node is eligible. At every tick boundary
    ``solution`` is a valid disjoint k-clique set; maximality holds once
    :attr:`finished` is true (every node has been scanned). The state is
    fully determined by ``(graph, ordering, solution, pos, stats)``, so
    :meth:`state_dict` / :meth:`load_state` round-trip a half-run scan
    through JSON by replaying the solution's invalidations.
    """

    tag = "hg"

    def __init__(
        self,
        graph: Graph,
        k: int,
        order: OrderSpec = "degree",
        oriented: OrientedGraph | None = None,
        warm_start: Iterable[frozenset[int]] | None = None,
    ) -> None:
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        dag = oriented if oriented is not None else OrientedGraph.orient(graph, order)
        self.graph = graph
        self.k = k
        # Live out-neighbour sets: nodes are physically removed when their
        # clique enters S, exactly like the paper's residual graph.
        self.out = [set(s) for s in dag.out]
        self.valid = [True] * graph.n
        self.free = graph.n  # how many ``valid`` flags are still set
        self.scan = dag.nodes_ascending()
        self.pos = 0
        self.solution: list[frozenset[int]] = []
        self.stats: dict[str, float] = {
            "nodes_processed": 0,
            "findone_calls": 0,
            "cliques_taken": 0,
        }
        if warm_start:
            self.stats["warm_seeded"] = 0
            for clique in warm_start:
                if is_seedable_clique(
                    graph, k, clique, lambda u: self.valid[u]
                ):
                    self._take(clique)
                    self.stats["warm_seeded"] += 1

    # -- seeding -------------------------------------------------------
    def _take(self, clique: Iterable[int]) -> None:
        found = frozenset(clique)
        self.solution.append(found)
        self.stats["cliques_taken"] += 1
        for w in found:
            self.valid[w] = False
        self.free -= len(found)
        for w in found:
            for v in self.graph.neighbors(w):
                self.out[v].discard(w)
            self.out[w].clear()

    # -- stepping ------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the scan has processed every node (solution maximal)."""
        return self.pos >= len(self.scan)

    @property
    def size(self) -> int:
        """Current ``|S|`` of the partial solution."""
        return len(self.solution)

    def tick(self) -> None:
        """Process the next scan node (one FindOne boundary)."""
        if self.finished:
            return
        u = self.scan[self.pos]
        self.pos += 1
        if not self.valid[u] or len(self.out[u]) < self.k - 1:
            return
        self.stats["nodes_processed"] += 1
        found = _find_one(self.out, self.k - 1, self.out[u], [u], self.stats)
        if found is not None:
            self._take(found)

    # -- anytime surface -----------------------------------------------
    def bound(self) -> int:
        """Upper bound on the final ``|S|`` of this run (|S| + free/k)."""
        return len(self.solution) + self.free // self.k

    def snapshot_result(self) -> CliqueSetResult:
        """Current partial solution (always a valid disjoint set)."""
        return CliqueSetResult(
            list(self.solution), k=self.k, method=self.tag, stats=dict(self.stats)
        )

    def result(self) -> CliqueSetResult:
        """Final result; raises unless the scan ran to completion."""
        if not self.finished:
            raise InvalidParameterError(
                "engine has not finished; drive tick() to completion first"
            )
        return CliqueSetResult(
            self.solution, k=self.k, method=self.tag, stats=self.stats
        )

    # -- checkpoint / restore ------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable engine state (graph substrates excluded)."""
        return {
            "pos": self.pos,
            "solution": [sorted(c) for c in self.solution],
            "stats": dict(self.stats),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto fresh substrates.

        The out-sets and validity mask are reconstructed by replaying
        the checkpointed solution's invalidations (removal operations
        commute, so the residual graph is bit-identical to the one at
        checkpoint time).

        The snapshot is checked before anything is applied, and each of
        these raises :class:`InvalidParameterError`: a ``pos`` that is
        not an int in ``[0, n]``, or a solution that is not
        pairwise-disjoint k-cliques of the graph. As with ``lp``'s
        ``next_root``, the type and range of ``pos`` are checked but not
        its provenance: an edited ``pos`` that is still well formed can
        end the scan early.
        """
        pos = state["pos"]
        if not (is_int(pos) and 0 <= pos <= len(self.scan)):
            raise InvalidParameterError(
                f"pos {pos!r} is not an int in [0, {len(self.scan)}]"
            )
        self.solution = []
        for clique in checked_solution(self.graph, self.k, state["solution"]):
            self._take(clique)
        # _take bumped counters while replaying; the checkpointed stats
        # already account for that work, so they are restored wholesale.
        self.stats = {key: value for key, value in state["stats"].items()}
        self.pos = int(pos)


def basic_framework(
    graph: Graph, k: int, order: OrderSpec = "degree"
) -> CliqueSetResult:
    """Compute a maximal disjoint k-clique set with Algorithm 1.

    Parameters
    ----------
    graph:
        Input undirected graph.
    k:
        Clique size, ``>= 2`` (the paper fixes ``k >= 3``; ``k = 2``
        degenerates to greedy matching and is supported for completeness).
    order:
        Total node ordering — name, rank array or callable (see
        :func:`repro.graph.ordering.resolve`). Default: ascending degree,
        the ordering the paper's ``HG`` competitor uses.

    Returns
    -------
    CliqueSetResult
        Maximal disjoint k-clique set; ``stats`` records scan counters.
        This is the drive-to-completion wrapper over
        :class:`BasicEngine`; the ``hg`` method of
        :meth:`repro.core.session.Session.solve` /
        :meth:`~repro.core.session.Session.task` runs the same engine
        over the session's cached orientation.
    """
    engine = BasicEngine(graph, k, order=order)
    while not engine.finished:
        engine.tick()
    return engine.result()
