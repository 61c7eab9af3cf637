"""Exact maximum independent set via branch-and-bound.

Strategy: kernelise with the safe reductions in
:mod:`repro.mis.reductions`, then observe that a maximum IS of the kernel
is a maximum clique of its complement. Clique graphs — the instances the
paper's ``OPT`` baseline solves — are *dense*, so their complements are
sparse, which is exactly where a Tomita-style max-clique search with a
greedy-colouring bound excels.

Bitsets are Python ints: ``adj[u]`` has bit ``v`` set iff ``(u, v)`` is an
edge. All set operations are single big-int instructions, which keeps the
inner loop allocation-free.

A wall-clock budget turns the solver into the paper's ``OOT`` behaviour:
:class:`repro.errors.OutOfTimeError` is raised when exceeded.
"""

from __future__ import annotations

import time

from repro.errors import OutOfTimeError
from repro.graph.graph import Graph
from repro.mis.reductions import reduce_mis


class _MaxCliqueSolver:
    """Tomita-style branch and bound with greedy colouring bound."""

    def __init__(self, adj: list[int], n: int, deadline: float | None) -> None:
        self.adj = adj
        self.n = n
        self.deadline = deadline
        self.best: list[int] = []
        self._ticks = 0

    def _check_time(self) -> None:
        self._ticks += 1
        if self.deadline is not None and not self._ticks % 256:
            if time.monotonic() > self.deadline:
                raise OutOfTimeError("exact MIS exceeded its time budget")

    def solve(self) -> list[int]:
        """Return one maximum clique (node list)."""
        if self.n == 0:
            return []
        # Initial ordering: degree descending helps the colour bound.
        order = sorted(range(self.n), key=lambda u: -bin(self.adj[u]).count("1"))
        full = 0
        for u in order:
            full |= 1 << u
        self._expand([], full)
        return sorted(self.best)

    def _colour_sort(self, candidates: int) -> list[tuple[int, int]]:
        """Greedy colouring of the candidate set.

        Returns ``(node, colour)`` pairs with colours non-decreasing; a
        node's colour is an upper bound on the clique size achievable from
        it and its predecessors in the list.
        """
        coloured: list[tuple[int, int]] = []
        remaining = candidates
        colour = 0
        while remaining:
            colour += 1
            available = remaining
            while available:
                low = available & -available
                v = low.bit_length() - 1
                coloured.append((v, colour))
                remaining ^= low
                available &= ~self.adj[v] & remaining
        return coloured

    def _expand(self, current: list[int], candidates: int) -> None:
        self._check_time()
        coloured = self._colour_sort(candidates)
        # Process highest colour first (classic MCS order).
        for v, colour in reversed(coloured):
            if len(current) + colour <= len(self.best):
                return
            current.append(v)
            nxt = candidates & self.adj[v]
            if nxt:
                self._expand(current, nxt)
            elif len(current) > len(self.best):
                self.best = current.copy()
            current.pop()
            candidates &= ~(1 << v)


def max_clique(graph: Graph, time_budget: float | None = None) -> list[int]:
    """One maximum clique of ``graph`` (sorted node list)."""
    n = graph.n
    adj = [0] * n
    for u, v in graph.edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    deadline = None if time_budget is None else time.monotonic() + time_budget
    return _MaxCliqueSolver(adj, n, deadline).solve()


def exact_mis(graph: Graph, time_budget: float | None = None) -> list[int]:
    """One maximum independent set of ``graph`` (sorted node list).

    Kernelises, then runs max-clique on the kernel's complement. Raises
    :class:`OutOfTimeError` when ``time_budget`` seconds elapse.
    """
    start = time.monotonic()
    kernel = reduce_mis(graph)
    k = kernel.kernel
    remaining = (
        None if time_budget is None else time_budget - (time.monotonic() - start)
    )
    if remaining is not None and remaining <= 0:
        raise OutOfTimeError("exact MIS exceeded its time budget during reduction")
    solution = max_clique(k.complement(), time_budget=remaining)
    return kernel.lift(solution)
