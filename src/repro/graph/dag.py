"""DAG orientation of an undirected graph by a total node ordering.

Given a rank array ``eta`` (see :mod:`repro.graph.ordering`), the oriented
graph has an arc ``u -> v`` iff ``eta(u) > eta(v)`` — i.e. out-neighbours
have *smaller* rank, matching Algorithm 1 of the paper ("the ordering of
nodes v in N+(u) is smaller than the one of u"). Every k-clique then has a
unique *root*: its node of largest rank, from whose out-neighbourhood the
remaining k-1 nodes are drawn. This is the standard kClist device that
makes each clique enumerable exactly once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.concurrency import make_lock
from repro.graph.graph import Graph
from repro.graph import ordering as _ordering

if TYPE_CHECKING:  # imported for annotations only
    from repro.graph.dynamic import DynamicGraph


class OrientedCSR:
    """Array form of an orientation: sorted int64 out-neighbour rows.

    The out-neighbourhood of ``u`` is ``cols[indptr[u]:indptr[u+1]]``,
    sorted ascending by node id. This is the substrate the static
    clique engine intersects (see
    :mod:`repro.cliques.csr_kernels`); it carries exactly the same arcs
    as :attr:`OrientedGraph.out` for the same rank array.
    """

    __slots__ = ("indptr", "cols", "rank")

    def __init__(self, indptr: np.ndarray, cols: np.ndarray, rank: np.ndarray) -> None:
        self.indptr = indptr
        self.cols = cols
        self.rank = rank

    @classmethod
    def from_rank(
        cls, graph: Graph | DynamicGraph, rank: Sequence[int] | np.ndarray, floor: int = 0
    ) -> OrientedCSR:
        """Orient ``graph`` by a rank array, fully vectorised.

        Filters the graph's (cached) undirected CSR with one boolean
        mask ``rank[v] < rank[u]`` — no per-node Python loop, and no
        intermediate ``set`` materialisation. A positive ``floor`` also
        drops every arc at a node ranked below it: the orientation of
        the subgraph on the nodes ranked ``>= floor``.
        """
        csr = graph.csr()
        n = graph.n
        rank = np.asarray(rank, dtype=np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), csr.degrees())
        heads = rank[csr.cols]
        keep = heads < rank[rows]
        if floor:
            keep &= heads >= floor
        del heads
        cols = csr.cols[keep]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
        return cls(indptr, cols, rank)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.indptr) - 1

    def row(self, u: int) -> np.ndarray:
        """Sorted out-neighbour array of ``u`` (a view; do not mutate)."""
        return self.cols[self.indptr[u] : self.indptr[u + 1]]

    def out_degrees(self) -> np.ndarray:
        """int64 out-degree array."""
        return np.diff(self.indptr)


class OrientedGraph:
    """An orientation of a :class:`Graph` under a total ordering.

    Attributes
    ----------
    graph:
        The underlying undirected graph.
    rank:
        ``rank[u]`` is the position of ``u`` in the total order.
    out:
        ``out[u]`` is the *set* of out-neighbours of ``u`` (all with
        smaller rank), used by ``hg``; built on first access (see
        :attr:`has_out`). The array twin every clique pass reads is
        built lazily by :meth:`csr`.
    """

    __slots__ = ("graph", "rank", "_out", "_csr", "_lock")

    def __init__(self, graph: Graph, rank: np.ndarray) -> None:
        self.graph = graph
        self.rank = rank
        self._out: list[set[int]] | None = None
        self._csr: OrientedCSR | None = None
        # Guards the lazy memos: engines read them outside the
        # preprocessing lock, so concurrent tasks over a shared session
        # could otherwise race the O(n + m) orientation builds.
        self._lock = make_lock("OrientedGraph._lock")

    @property
    def out(self) -> list[set[int]]:
        """Per-node out-neighbour sets, built on first access (cached)."""
        if self._out is None:
            with self._lock:
                if self._out is None:
                    rank, graph = self.rank, self.graph
                    self._out = [
                        {v for v in graph.neighbors(u) if rank[v] < rank[u]}
                        for u in range(graph.n)
                    ]
        return self._out

    @property
    def has_out(self) -> bool:
        """Whether the out-sets have been built (without building them)."""
        return self._out is not None

    def csr(self) -> OrientedCSR:
        """Lazily-built (and cached) :class:`OrientedCSR` of this orientation."""
        if self._csr is None:
            with self._lock:
                if self._csr is None:
                    self._csr = OrientedCSR.from_rank(self.graph, self.rank)
        return self._csr

    @property
    def has_csr(self) -> bool:
        """Whether the CSR twin has been built (without building it)."""
        return self._csr is not None

    @classmethod
    def orient(cls, graph: Graph, order: _ordering.OrderSpec = "degeneracy") -> "OrientedGraph":
        """Orient ``graph`` by a named ordering, rank array or callable."""
        rank = _ordering.resolve(order, graph)
        return cls(graph, rank)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.graph.n

    def nodes_ascending(self) -> list[int]:
        """Node ids sorted by ascending rank (Algorithm 1's scan order)."""
        order = np.empty(self.n, dtype=np.int64)
        order[self.rank] = np.arange(self.n)
        return [int(u) for u in order]
