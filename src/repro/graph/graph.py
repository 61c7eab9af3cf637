"""Static undirected graph used by every algorithm in this package.

The paper's algorithms operate on simple undirected graphs with nodes
labelled ``0 .. n-1``. :class:`Graph` is CSR-first: the constructor
reads the edge list into numpy once, validates it, dedupes it and
builds the sorted int64 CSR arrays (:mod:`repro.graph.csr`) that the
orderings, the orientations and the static clique engine read (see
:mod:`repro.graph.ordering` and :mod:`repro.cliques.csr_kernels`).
A cold ``lp`` solve therefore builds no Python adjacency at all.

The per-node Python ``set`` adjacency — the substrate of ``hg``,
subgraph extraction and incremental neighbourhood queries — is
built lazily on the first :meth:`Graph.neighbors`, :meth:`Graph.has_edge`,
:meth:`Graph.edges` or :meth:`Graph.is_clique` call. It is filled from
the input pairs in input order, so every set, and hence
:meth:`Graph.edges`, iterates exactly as an eagerly built one would;
the input pairs are held only until then.

Instances are immutable after construction; the dynamic-maintenance code
uses :class:`repro.graph.dynamic.DynamicGraph` instead and converts via
:meth:`Graph.from_dynamic` / :meth:`DynamicGraph.snapshot`.
"""

from __future__ import annotations

import math
import operator
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.concurrency import make_lock
from repro.errors import GraphError
from repro.graph.csr import CSRAdjacency, sorted_unique

if TYPE_CHECKING:  # deferred at runtime: dynamic imports graph
    from repro.graph.dynamic import DynamicGraph

Edge = tuple[int, int]

#: Largest node count whose directed CSR keys ``u * n + v`` (at most
#: ``n * n - 1``) fit in int64; a larger ``n`` would overflow them.
MAX_NODES = math.isqrt(2**63 - 1)


def _canonical(u: int, v: int) -> Edge:
    """Return the edge ``(u, v)`` with endpoints in ascending order."""
    return (u, v) if u < v else (v, u)


def check_edge(n: int, edge: object) -> Edge:
    """One edge of a graph on ``n`` nodes as a pair of plain ints.

    The package's one endpoint rule: an endpoint must be an integer
    (``operator.index``: Python ints, numpy integers and ``bool`` pass),
    the endpoints must differ and both must lie in ``[0, n)``. Anything
    else raises :class:`GraphError`.
    """
    try:
        u, v = edge  # type: ignore[misc]
    except (TypeError, ValueError):
        raise GraphError(f"edge {edge!r} is not a (u, v) pair") from None
    try:
        u, v = operator.index(u), operator.index(v)
    except TypeError:
        raise GraphError(f"edge {edge!r} has a non-integer endpoint") from None
    if u == v:
        raise GraphError(f"self-loop on node {u} is not allowed")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge ({u}, {v}) outside node range [0, {n})")
    return u, v


def _read_pairs(n: int, edges: Iterable[Edge]) -> np.ndarray:
    """The input edges as a validated ``(E, 2)`` int64 array, in input order.

    Raises :class:`GraphError` for the first edge, in input order, that
    is not a pair, has an endpoint that is not an integer (Python ints,
    numpy integers and ``bool`` are), is a self-loop or leaves
    ``[0, n)``.
    """
    edge_list = edges if isinstance(edges, list) else list(edges)
    count = len(edge_list)
    try:
        flat = map(operator.index, chain.from_iterable(edge_list))
        pairs = (
            np.fromiter(flat, dtype=np.int64, count=2 * count).reshape(count, 2)
            if set(map(len, edge_list)) <= {2}
            else None
        )
    except (TypeError, OverflowError):
        pairs = None
    if pairs is None:
        # Something is malformed or unusual (an edge without len(), a
        # non-integer, an int past int64): check edge by edge, in order.
        checked = [check_edge(n, edge) for edge in edge_list]
        pairs = np.array(checked, dtype=np.int64).reshape(count, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        check_edge(n, tuple(pairs[int(np.argmax(bad))].tolist()))
    return pairs


class Graph:
    """An immutable simple undirected graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of nodes, at most :data:`MAX_NODES`. Isolated nodes are
        allowed, so ``n`` may exceed the largest endpoint seen in
        ``edges``.
    edges:
        Iterable of ``(u, v)`` pairs of integers (Python ints, numpy
        integers or ``bool``). An edge that is not such a pair, a
        self-loop or an endpoint outside ``[0, n)`` raises
        :class:`GraphError` naming the first offending edge; duplicate
        edges (in either orientation) are silently merged, which matches
        how the paper's datasets are cleaned.
    """

    __slots__ = ("_n", "_m", "_degrees", "_csr", "_pairs", "_adj", "_lock")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        n = operator.index(n)
        if not 0 <= n <= MAX_NODES:
            raise GraphError(f"node count must be in [0, {MAX_NODES}], got {n}")
        pairs = _read_pairs(n, edges)
        u, v = pairs[:, 0], pairs[:, 1]
        # One sort of the directed keys row * n + col lays out every
        # sorted row at once; dropping repeats merges duplicate edges.
        keys = sorted_unique(np.concatenate((u * n + v, v * n + u)))
        rows, cols = np.divmod(keys, max(n, 1))
        self._degrees = np.bincount(rows, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._degrees, out=indptr[1:])
        self._n = n
        self._m = len(keys) // 2
        self._csr = CSRAdjacency(indptr, cols)
        # Held only until the lazy sets are built from them.
        self._pairs: np.ndarray | None = pairs
        self._adj: list[set[int]] | None = None
        # Guards the lazy sets: sessions are shared across serving
        # worker threads, and an unguarded first call from two threads
        # duplicates the O(n + m) build.
        self._lock = make_lock("Graph._lock")

    def _sets(self) -> list[set[int]]:
        """Per-node neighbour sets, built on first use in input order."""
        adj = self._adj
        if adj is None:
            with self._lock:
                adj = self._adj
                if adj is None:
                    adj = [set() for _ in range(self._n)]
                    # One shared int object per node, not one per entry.
                    ids = np.arange(self._n).astype(object)
                    pairs = self._pairs
                    us, vs = ids[pairs[:, 0]].tolist(), ids[pairs[:, 1]].tolist()
                    for u, v in zip(us, vs):
                        adj[u].add(v)
                        adj[v].add(u)
                    self._adj = adj
                    self._pairs = None
        return adj

    @property
    def has_sets(self) -> bool:
        """Whether the neighbour sets have been built (without building them)."""
        return self._adj is not None

    def estimated_bytes(self) -> int:
        """Rough resident size of what this graph holds right now.

        The CSR arrays and the degree array at their exact ``nbytes``;
        the input pairs while they are held; the neighbour sets once
        built, at about 64 bytes per node plus 60 per directed entry
        (calibrated to CPython 3.11).
        """
        pairs = self._pairs  # read first: a finishing set build drops it
        total = int(self._csr.indptr.nbytes + self._csr.cols.nbytes + self._degrees.nbytes)
        if self._adj is not None:
            return total + self._n * 64 + self._m * 2 * 60
        return total + (int(pairs.nbytes) if pairs is not None else 0)

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
        return int(self._degrees[u])

    def neighbors(self, u: int) -> set[int]:
        """The neighbour set of ``u`` (do not mutate)."""
        adj = self._adj
        return (adj if adj is not None else self._sets())[u]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return v in self.neighbors(u)

    def nodes(self) -> range:
        """Iterate node ids ``0 .. n-1``."""
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        """Iterate each undirected edge once, as ``(min, max)`` pairs."""
        adj = self._sets()
        for u in range(self._n):
            for v in adj[u]:
                if u < v:
                    yield (u, v)

    def max_degree(self) -> int:
        """Largest degree in the graph (0 for the empty graph)."""
        return int(self._degrees.max()) if self._n else 0

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def csr(self) -> CSRAdjacency:
        """The sorted CSR adjacency (see :mod:`repro.graph.csr`)."""
        return self._csr

    def subgraph_with_mapping(self, nodes: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph on ``nodes``, relabelled to ``0 .. len-1``,
        plus the list mapping new ids to original ids."""
        keep = sorted(set(nodes))
        index = {orig: new for new, orig in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u in keep
            for v in self._csr.row(u).tolist()
            if u < v and v in index
        ]
        return Graph(len(keep), edges), keep

    def complement(self) -> "Graph":
        """Complement graph (intended for small instances only)."""
        edges = [
            (u, v)
            for u in range(self._n)
            for v in range(u + 1, self._n)
            if v not in self.neighbors(u)
        ]
        return Graph(self._n, edges)

    def is_clique(self, nodes: Sequence[int]) -> bool:
        """Whether ``nodes`` induce a complete subgraph (all distinct)."""
        node_list = list(nodes)
        if len(set(node_list)) != len(node_list):
            return False
        adj = self._sets()
        for i, u in enumerate(node_list):
            adj_u = adj[u]
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
        mine, theirs = self._csr, other._csr
        return (
            self._n == other._n
            and np.array_equal(mine.indptr, theirs.indptr)
            and np.array_equal(mine.cols, theirs.cols)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"
