"""Mutable undirected graph supporting O(1) edge insertions and deletions.

The dynamic-maintenance algorithms (Section V of the paper) interleave
edge updates with local clique searches, so the structure keeps plain
``set`` adjacency. A :meth:`snapshot` produces the immutable
:class:`repro.graph.graph.Graph` consumed by the static algorithms, e.g.
for rebuild-from-scratch comparisons (Table VIII).

It also keeps a CSR mirror of that adjacency (:meth:`DynamicGraph.csr`,
the same :class:`~repro.graph.csr.CSRAdjacency` a static graph returns),
from which the dynamic repair gathers neighbourhoods with one numpy row
gather instead of draining per-node sets. The mirror is synced lazily:
an edge update only records the edge and whether it was present at its
first touch since the last read; the next :meth:`csr` call folds all of
them into one sorted int64 key array (``u << 32 | v``, both directions)
with one numpy delete and one insert, adjusts the degrees with
``np.add.at`` and rebuilds ``indptr`` as their cumulative sum. An edge
toggled back to its first-touch state within one window costs nothing.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRAdjacency, sorted_unique
from repro.graph.graph import Graph, check_edge

Edge = tuple[int, int]


class DynamicGraph:
    """A simple undirected graph on ``0 .. n-1`` with edge updates.

    Edge updates take endpoints under :class:`Graph`'s rule
    (:func:`~repro.graph.graph.check_edge`): an endpoint that is not an
    integer, a self-loop or an endpoint outside ``[0, n)`` raises
    :class:`~repro.errors.GraphError` before anything changes.
    """

    __slots__ = ("_n", "_m", "_adj", "_keys", "_degrees", "_touched", "_csr")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        self._n = n
        self._m = 0
        self._adj: list[set[int]] = [set() for _ in range(n)]
        # The mirror as of its last fold (None until first read) and the
        # edges touched since, each with its presence at first touch.
        self._keys: np.ndarray | None = None
        self._degrees: np.ndarray | None = None
        self._touched: dict[Edge, bool] = {}
        self._csr: CSRAdjacency | None = None
        for u, v in edges:
            self.insert_edge(u, v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``; return ``False`` if it already existed."""
        u, v = check_edge(self._n, (u, v))
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._m += 1
        self._touch(u, v, False)
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)``; return ``False`` if it was absent."""
        u, v = check_edge(self._n, (u, v))
        if v not in self._adj[u]:
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._m -= 1
        self._touch(u, v, True)
        return True

    def insert_edges(self, edges: Iterable[Edge]) -> int:
        """Bulk insert; returns how many edges were actually created."""
        return sum(1 for u, v in edges if self.insert_edge(u, v))

    def delete_edges(self, edges: Iterable[Edge]) -> int:
        """Bulk delete; returns how many edges were actually removed."""
        return sum(1 for u, v in edges if self.delete_edge(u, v))

    def _apply_net(self, deletes: Sequence[Edge], inserts: Sequence[Edge]) -> None:
        """Delete present edges and insert absent ones, without checks.

        For a planned batch (:meth:`repro.dynamic.batch.UpdateBatch.plan`):
        its edges are distinct ``(min, max)`` pairs that already passed
        :func:`~repro.graph.graph.check_edge`, each delete is present and
        each insert absent. Anything else corrupts the graph.
        """
        adj = self._adj
        for u, v in deletes:
            adj[u].discard(v)
            adj[v].discard(u)
        for u, v in inserts:
            adj[u].add(v)
            adj[v].add(u)
        self._m += len(inserts) - len(deletes)
        if self._keys is not None:
            self._csr = None
            touched = self._touched
            for edge in deletes:
                touched.setdefault(edge, True)
            for edge in inserts:
                touched.setdefault(edge, False)

    def add_node(self) -> int:
        """Append an isolated node and return its id."""
        self._adj.append(set())
        self._n += 1
        self._csr = None
        return self._n - 1

    def _touch(self, u: int, v: int, present: bool) -> None:
        """Record a change of edge ``(u, v)`` for the next mirror fold."""
        if self._keys is not None:
            self._csr = None
            self._touched.setdefault((u, v) if u < v else (v, u), present)

    # ------------------------------------------------------------------
    # Accessors (mirror the static Graph API)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        return len(self._adj[u])

    def neighbors(self, u: int) -> set[int]:
        """Neighbour set of ``u`` (live view; do not mutate)."""
        return self._adj[u]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` exists."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return v in self._adj[u]

    def nodes(self) -> range:
        """Iterate node ids."""
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        """Iterate each edge once as ``(min, max)``."""
        for u in range(self._n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def is_clique(self, nodes: Iterable[int]) -> bool:
        """Whether ``nodes`` induce a complete subgraph."""
        node_list = list(nodes)
        if len(set(node_list)) != len(node_list):
            return False
        for i, u in enumerate(node_list):
            adj_u = self._adj[u]
            for v in node_list[i + 1 :]:
                if v not in adj_u:
                    return False
        return True

    def csr(self) -> CSRAdjacency:
        """The sorted CSR adjacency of the current graph (do not mutate).

        Equal to ``snapshot().csr()``; folds the updates recorded since
        the last call first (see the module docstring).
        """
        csr = self._csr
        if csr is None:
            csr = self._csr = self._fold()
        return csr

    def _fold(self) -> CSRAdjacency:
        """Bring the mirror up to date and return it as a CSR."""
        if self._keys is None:
            # First read: one drain of the sets seeds the mirror.
            degrees = np.fromiter(map(len, self._adj), dtype=np.int64, count=self._n)
            rows = np.repeat(np.arange(self._n, dtype=np.int64), degrees)
            cols = np.fromiter(
                (v for row in self._adj for v in row), dtype=np.int64, count=2 * self._m
            )
            keys = sorted_unique((rows << 32) | cols)
        else:
            keys, degrees = self._keys, self._degrees
            if len(degrees) < self._n:
                degrees = np.concatenate(
                    (degrees, np.zeros(self._n - len(degrees), dtype=np.int64))
                )
            # Mirror keys of the edges whose presence differs from their
            # first touch: those left the graph or joined it.
            adj = self._adj
            gone: list[int] = []
            new: list[int] = []
            for (u, v), was in self._touched.items():
                if (v in adj[u]) != was:
                    (gone if was else new).extend(((u << 32) | v, (v << 32) | u))
            self._touched.clear()
            if gone:
                drop = np.array(sorted(gone), dtype=np.int64)
                keys = np.delete(keys, np.searchsorted(keys, drop))
                np.add.at(degrees, drop >> 32, -1)
            if new:
                add = np.array(sorted(new), dtype=np.int64)
                keys = np.insert(keys, np.searchsorted(keys, add), add)
                np.add.at(degrees, add >> 32, 1)
        self._keys, self._degrees = keys, degrees
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        # The low 32 bits of a key are its column.
        return CSRAdjacency(indptr, keys & 0xFFFFFFFF)

    def snapshot(self) -> Graph:
        """Freeze into an immutable :class:`repro.graph.graph.Graph`."""
        return Graph(self._n, list(self.edges()))

    @classmethod
    def from_graph(cls, graph: Graph) -> "DynamicGraph":
        """Thaw an immutable :class:`repro.graph.graph.Graph`; its CSR
        seeds the mirror."""
        dyn = cls(graph.n)
        csr = graph.csr()
        # The sets come from the sorted rows (one shared int object per
        # node), so the static graph builds no sets of its own.
        cols = np.arange(graph.n).astype(object)[csr.cols].tolist()
        bounds = csr.indptr.tolist()
        dyn._adj = [set(cols[a:b]) for a, b in zip(bounds, bounds[1:])]
        dyn._m = graph.m
        rows = np.repeat(np.arange(graph.n, dtype=np.int64), csr.degrees())
        dyn._keys = (rows << 32) | csr.cols
        dyn._degrees = csr.degrees()
        dyn._csr = csr
        return dyn

    def __repr__(self) -> str:
        return f"DynamicGraph(n={self._n}, m={self._m})"
