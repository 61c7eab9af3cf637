"""Static undirected graph used by every algorithm in this package.

The paper's algorithms operate on simple undirected graphs with nodes
labelled ``0 .. n-1``. :class:`Graph` stores adjacency twice:

* a list of Python ``set`` objects — the substrate of the ``"sets"``
  enumeration backend and of incremental neighbourhood queries, and
* a CSR view (:mod:`repro.graph.csr`) built lazily — sorted int64 row
  arrays powering the numpy bulk statistics *and* the ``"csr"``
  enumeration backend (oriented CSR construction, vectorised k-clique
  counting/scoring; see :mod:`repro.cliques.csr_kernels`).

Instances are immutable after construction; the dynamic-maintenance code
uses :class:`repro.graph.dynamic.DynamicGraph` instead and converts via
:meth:`Graph.from_dynamic` / :meth:`DynamicGraph.snapshot`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.concurrency import make_lock
from repro.errors import GraphError

if TYPE_CHECKING:  # deferred at runtime: csr imports graph
    from repro.graph.csr import CSRAdjacency
    from repro.graph.dynamic import DynamicGraph

Edge = tuple[int, int]


def _canonical(u: int, v: int) -> Edge:
    """Return the edge ``(u, v)`` with endpoints in ascending order."""
    return (u, v) if u < v else (v, u)


class Graph:
    """An immutable simple undirected graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of nodes. Isolated nodes are allowed, so ``n`` may exceed
        the largest endpoint seen in ``edges``.
    edges:
        Iterable of ``(u, v)`` pairs. Self-loops raise :class:`GraphError`;
        duplicate edges (in either orientation) are silently merged, which
        matches how the paper's datasets are cleaned.
    """

    __slots__ = ("_n", "_m", "_adj", "_degrees", "_csr_cache", "_lock")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop on node {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) outside node range [0, {n})")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        self._n = n
        self._m = m
        self._adj = adj
        self._degrees = np.fromiter((len(s) for s in adj), dtype=np.int64, count=n)
        self._csr_cache = None
        # Guards the lazy CSR memo: sessions are shared across serving
        # worker threads, and an unguarded first call from two threads
        # duplicates the O(n + m) build.
        self._lock = make_lock("Graph._lock")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    @property
    def degrees(self) -> np.ndarray:
        """Read-only int64 array of node degrees."""
        return self._degrees

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        return len(self._adj[u])

    def neighbors(self, u: int) -> set[int]:
        """The neighbour set of ``u`` (do not mutate)."""
        return self._adj[u]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return v in self._adj[u]

    def nodes(self) -> range:
        """Iterate node ids ``0 .. n-1``."""
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        """Iterate each undirected edge once, as ``(min, max)`` pairs."""
        for u in range(self._n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def max_degree(self) -> int:
        """Largest degree in the graph (0 for the empty graph)."""
        return int(self._degrees.max()) if self._n else 0

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def csr(self) -> "CSRAdjacency":
        """Lazily-built CSR adjacency view (see :mod:`repro.graph.csr`)."""
        if self._csr_cache is None:
            from repro.graph.csr import CSRAdjacency

            with self._lock:
                if self._csr_cache is None:
                    self._csr_cache = CSRAdjacency.from_graph(self)
        return self._csr_cache

    def subgraph(self, nodes: Iterable[int]) -> "Graph":
        """Induced subgraph on ``nodes``, relabelled to ``0 .. len-1``.

        Returns a new :class:`Graph`; use :meth:`subgraph_with_mapping`
        when the original labels are needed afterwards.
        """
        sub, _ = self.subgraph_with_mapping(nodes)
        return sub

    def subgraph_with_mapping(self, nodes: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph plus the list mapping new ids to original ids."""
        keep = sorted(set(nodes))
        index = {orig: new for new, orig in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u in keep
            for v in sorted(self._adj[u])
            if u < v and v in index
        ]
        return Graph(len(keep), edges), keep

    def complement(self) -> "Graph":
        """Complement graph (intended for small instances only)."""
        edges = [
            (u, v)
            for u in range(self._n)
            for v in range(u + 1, self._n)
            if v not in self._adj[u]
        ]
        return Graph(self._n, edges)

    def is_clique(self, nodes: Sequence[int]) -> bool:
        """Whether ``nodes`` induce a complete subgraph (all distinct)."""
        node_list = list(nodes)
        if len(set(node_list)) != len(node_list):
            return False
        for i, u in enumerate(node_list):
            adj_u = self._adj[u]
            for v in node_list[i + 1 :]:
                if v not in adj_u:
                    return False
        return True

    def remove_edges(self, edges: Iterable[Edge]) -> "Graph":
        """New graph with the given edges deleted (either orientation)."""
        gone = {_canonical(u, v) for u, v in edges}
        kept = [e for e in self.edges() if e not in gone]
        return Graph(self._n, kept)

    def add_edges(self, edges: Iterable[Edge]) -> "Graph":
        """New graph with the given edges added (duplicates merged)."""
        return Graph(self._n, list(self.edges()) + [_canonical(u, v) for u, v in edges])

    def remove_nodes(self, nodes: Iterable[int]) -> "Graph":
        """New graph with ``nodes`` (and incident edges) deleted.

        Node ids are preserved; removed ids become isolated. This mirrors
        the paper's "residual graph" wording without relabelling.
        """
        gone = set(nodes)
        edges = [
            (u, v) for (u, v) in self.edges() if u not in gone and v not in gone
        ]
        return Graph(self._n, edges)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge], n: int | None = None) -> "Graph":
        """Build a graph from an edge iterable, inferring ``n`` if omitted."""
        edge_list = [_canonical(u, v) for u, v in edges]
        if n is None:
            n = 1 + max((max(e) for e in edge_list), default=-1)
        return cls(n, edge_list)

    @classmethod
    def from_dynamic(cls, dyn: "DynamicGraph") -> "Graph":
        """Freeze a :class:`repro.graph.dynamic.DynamicGraph`."""
        return cls(dyn.n, dyn.edges())

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __contains__(self, u: int) -> bool:
        return 0 <= u < self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"
