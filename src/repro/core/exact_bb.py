"""Direct branch-and-bound exact solver (OPT cross-check).

An *independent* exact method: instead of reducing to maximum
independent set on the clique graph (``repro.core.exact``), branch
directly over the clique list with bitset node masks. Two pruning
devices keep it usable on small-but-nontrivial instances:

* **capacity bound** — a completed branch can add at most
  ``free_capable_nodes // k`` more cliques, where capable nodes are
  those still free and appearing in some remaining clique;
* **suffix bound** — cliques are scanned in the package's ascending
  clique-key order, so at position ``i`` at most ``len - i`` cliques
  remain.

Having two exact solvers built on disjoint theory lets the test suite
cross-validate them against each other — a much stronger oracle than
either alone.

The search runs on an explicit frame stack (:class:`ExactBBEngine`):
each :meth:`ExactBBEngine.tick` expands exactly one branch node, so the
search can be suspended at any branch boundary with the incumbent (a
valid disjoint k-clique set) and a live anytime upper bound, and the
whole stack serialises through JSON for cross-process checkpoint /
restore. :func:`exact_optimum_bb` is the drive-to-completion wrapper
with the same results and stats as the pre-engine recursive
implementation; the ``opt-bb`` method runs the engine as a
:class:`repro.core.task.SolveTask`, whose step bound enforces its
``time_budget``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import InvalidParameterError, OutOfMemoryError
from repro.graph.graph import Graph
from repro.cliques.counting import node_scores
from repro.cliques.listing import iter_cliques
from repro.core.result import CliqueSetResult, is_int
from repro.core.scores import clique_key

#: Frame layout: ``[next_i, used_mask, owns_choice, depth]`` — the scan
#: cursor, the bitset of covered nodes, whether this frame pushed onto
#: ``chosen`` (and must pop it on exit), and ``len(chosen)`` at entry.
_I, _USED, _OWNS, _DEPTH = 0, 1, 2, 3


class ExactBBEngine:
    """Resumable explicit-stack engine for the direct branch-and-bound.

    One :meth:`tick` performs exactly one branch-node expansion — the
    unit the recursive implementation counted as ``nodes_expanded`` —
    so driving the engine to completion reproduces the recursion's
    visit order, incumbent trajectory, solution and stats exactly.
    ``best`` (the incumbent) is a valid disjoint k-clique set at every
    tick boundary, and :meth:`bound` reports a certified anytime upper
    bound that tightens as the stack unwinds: when :attr:`finished` is
    true it equals ``|best|``, proving optimality.
    """

    tag = "opt-bb"

    def __init__(
        self,
        graph: Graph,
        k: int,
        max_cliques: int | None = None,
        scores: np.ndarray | None = None,
        cliques: Sequence[tuple[int, ...]] | None = None,
        warm_start: Iterable[frozenset[int]] | None = None,
    ) -> None:
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        if scores is None:
            scores = node_scores(graph, k)
        if cliques is None:
            cliques = []
            for clique in iter_cliques(graph, k):
                if max_cliques is not None and len(cliques) >= max_cliques:
                    raise OutOfMemoryError(
                        f"exact B&B exceeded its clique budget of {max_cliques}"
                    )
                cliques.append(tuple(sorted(clique)))
        else:
            if max_cliques is not None and len(cliques) > max_cliques:
                raise OutOfMemoryError(
                    f"exact B&B exceeded its clique budget of {max_cliques}"
                )
            # The tuples are used as-is: masks and result frozensets are
            # member-order-independent and clique_key sorts internally, so
            # the (typically session-cached) list is only shallow-copied.
            cliques = list(cliques)
        cliques.sort(key=lambda c: clique_key(c, scores))

        self.k = k
        self.cliques = cliques
        self.masks = [sum(1 << u for u in c) for c in cliques]
        # suffix_capable[i]: nodes used by cliques[i:] — capacity bound input.
        suffix_capable = [0] * (len(cliques) + 1)
        for i in range(len(cliques) - 1, -1, -1):
            suffix_capable[i] = suffix_capable[i + 1] | self.masks[i]
        self.suffix_capable = suffix_capable

        self.best: list[int] = []
        self.chosen: list[int] = []
        self.ticks = 0
        self.stack: list[list] = [[0, 0, False, 0]]
        if warm_start:
            self._seed_incumbent(warm_start)

    def _seed_incumbent(self, warm_start: Iterable[Iterable[int]]) -> None:
        """Install a prior solution as the starting incumbent.

        A warm incumbent never changes the optimal *size* (the search
        stays exhaustive up to pruning-by-bound) but tightens pruning
        from tick one; the returned set may differ from a cold run's
        when multiple optima exist.
        """
        index_of = {clique: i for i, clique in enumerate(self.cliques)}
        seeded: list[int] = []
        used = 0
        for clique in warm_start:
            i = index_of.get(tuple(sorted(clique)))
            if i is None or used & self.masks[i]:
                continue
            used |= self.masks[i]
            seeded.append(i)
        if len(seeded) > len(self.best):
            self.best = seeded

    def _bound(self, idx: int, used: int) -> int:
        free = self.suffix_capable[idx] & ~used
        return min(len(self.cliques) - idx, bin(free).count("1") // self.k)

    # -- stepping ------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the search space is exhausted (incumbent is optimal)."""
        return not self.stack

    @property
    def size(self) -> int:
        """Current ``|S|`` of the incumbent."""
        return len(self.best)

    def tick(self) -> None:
        """Expand one branch node (one ``nodes_expanded`` unit).

        Mirrors one recursive ``search`` call: count the expansion,
        promote the current branch to incumbent if longer, then scan
        forward until the next descent (pushed for the next tick) or
        until this frame — and any exhausted ancestors — unwind.
        """
        if not self.stack:
            return
        stack = self.stack
        chosen = self.chosen
        masks = self.masks
        total = len(self.cliques)
        frame = stack[-1]
        self.ticks += 1
        if len(chosen) > len(self.best):
            self.best = chosen.copy()
        while True:
            i = frame[_I]
            used = frame[_USED]
            descended = False
            while i < total:
                if len(chosen) + self._bound(i, used) <= len(self.best):
                    i = total  # suffix pruned: abandon the whole frame
                    break
                if not used & masks[i]:
                    chosen.append(i)
                    frame[_I] = i + 1
                    stack.append([i + 1, used | masks[i], True, len(chosen)])
                    descended = True
                    break
                i += 1
            if descended:
                return
            frame[_I] = i
            stack.pop()
            if frame[_OWNS]:
                chosen.pop()
            if not stack:
                return
            frame = stack[-1]

    # -- anytime surface -----------------------------------------------
    def bound(self) -> int:
        """Certified anytime upper bound on the optimal ``|S|``.

        Every solution not yet enumerated completes some open stack
        frame, and a frame at scan position ``i`` with ``depth`` cliques
        chosen can reach at most ``depth + bound(i, used)`` — so the max
        over open frames (and the incumbent) bounds the optimum. Equals
        ``len(best)`` once the search finishes.
        """
        ub = len(self.best)
        total = len(self.cliques)
        for frame in self.stack:
            if frame[_I] < total:
                ub = max(ub, frame[_DEPTH] + self._bound(frame[_I], frame[_USED]))
        return ub

    def snapshot_result(self) -> CliqueSetResult:
        """Current incumbent (always a valid disjoint set)."""
        return CliqueSetResult(
            [frozenset(self.cliques[i]) for i in self.best],
            k=self.k,
            method=self.tag,
            stats=self._stats(),
        )

    def result(self) -> CliqueSetResult:
        """Final (optimal) result; raises unless the search finished."""
        if not self.finished:
            raise InvalidParameterError(
                "engine has not finished; drive tick() to completion first"
            )
        return self.snapshot_result()

    def _stats(self) -> dict[str, float]:
        return {
            "cliques_stored": float(len(self.cliques)),
            "nodes_expanded": float(self.ticks),
        }

    # -- checkpoint / restore ------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable search state (clique list excluded).

        ``used`` bitsets can exceed 64 bits on large graphs, so they are
        serialised as hex strings. The clique list itself is rebuilt
        deterministically from the graph on restore.
        """
        return {
            "ticks": self.ticks,
            "best": list(self.best),
            "chosen": list(self.chosen),
            "stack": [
                [frame[_I], format(frame[_USED], "x"), bool(frame[_OWNS]),
                 frame[_DEPTH]]
                for frame in self.stack
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        The snapshot is checked before anything is applied, and each of
        these raises :class:`InvalidParameterError`: a ``ticks`` that is
        not an int ``>= 0``; a ``best`` or ``chosen`` that is not a list
        of distinct, in-range indices of pairwise node-disjoint cliques;
        or a stack the search cannot reach with that ``chosen``. The
        search keeps the root frame plus one frame per chosen clique (no
        frame once finished), chooses in ascending index and parks each
        frame just past the clique its child chose; frame ``j`` is
        ``[next_i, used, j > 0, j]``, ``used`` being the hex cover of the
        first ``j`` chosen cliques.
        """
        ticks, stack = state["ticks"], state["stack"]
        if not (is_int(ticks) and ticks >= 0):
            raise InvalidParameterError(f"ticks {ticks!r} is not an int >= 0")
        best = self._checked_indices(state["best"], "best")
        chosen = self._checked_indices(state["chosen"], "chosen")
        if (
            not isinstance(stack, list)
            or max(len(stack) - 1, 0) != len(chosen)
            or chosen != sorted(chosen)
        ):
            raise InvalidParameterError(f"stack {stack!r} cannot hold chosen {chosen}")
        used = 0
        for depth, frame in enumerate(stack):
            top = depth == len(chosen)
            fields = [format(used, "x"), depth > 0, depth]
            if not (
                isinstance(frame, list)
                and len(frame) == 4
                and is_int(frame[_I])
                and frame[1:] == fields
                and (
                    (chosen[-1] if chosen else -1) < frame[_I] <= len(self.cliques)
                    if top
                    else frame[_I] == chosen[depth] + 1
                )
            ):
                raise InvalidParameterError(
                    f"stack frame {frame!r} at depth {depth} is not [next_i, "
                    f"{fields[0]!r}, {fields[1]}, {depth}] for chosen {chosen}"
                )
            if not top:
                used |= self.masks[chosen[depth]]
        self.ticks = int(ticks)
        self.best = best
        self.chosen = chosen
        self.stack = [
            [int(i), int(mask, 16), bool(owns), int(d)] for i, mask, owns, d in stack
        ]

    def _checked_indices(self, raw: object, what: str) -> list[int]:
        """``raw`` as distinct, in-range indices of pairwise node-disjoint
        cliques, else a typed error."""
        if not isinstance(raw, list) or not all(is_int(i) for i in raw):
            raise InvalidParameterError(f"{what} {raw!r} is not a list of ints")
        used = 0
        for i in raw:
            if not 0 <= i < len(self.cliques):
                raise InvalidParameterError(
                    f"{what} index {i} is outside [0, {len(self.cliques)})"
                )
            if used & self.masks[i]:
                raise InvalidParameterError(
                    f"{what} clique {i} repeats or overlaps an earlier one"
                )
            used |= self.masks[i]
        return [int(i) for i in raw]


def exact_optimum_bb(
    graph: Graph, k: int, max_cliques: int | None = None
) -> CliqueSetResult:
    """A maximum disjoint k-clique set by direct branch-and-bound.

    ``max_cliques`` mirrors :func:`repro.core.exact.exact_optimum`: a
    listing past it raises :class:`OutOfMemoryError`. This is the
    drive-to-completion wrapper over :class:`ExactBBEngine`; a
    ``time_budget``, step-wise anytime execution and the session's
    cached substrates come with the ``opt-bb`` method of
    :meth:`repro.core.session.Session.solve` /
    :meth:`~repro.core.session.Session.task`.
    """
    engine = ExactBBEngine(graph, k, max_cliques=max_cliques)
    while not engine.finished:
        engine.tick()
    return engine.result()
