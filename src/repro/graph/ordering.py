"""Total node orderings used to orient graphs into DAGs.

The paper's algorithms are parameterised by a total ordering ``eta`` on
the nodes (Section IV-A discusses why the choice matters). An ordering is
represented here as a *rank array*: ``rank[u]`` is the position of node
``u`` in the total order, so ``eta(u) < eta(v)`` iff ``rank[u] < rank[v]``.

Provided orderings:

``by_id``
    Node id order (the paper's running example, Fig. 4).
``by_degree``
    Ascending degree, ties by id — the classic kClist ordering; the node
    with the largest degree has the largest rank.
``by_degeneracy``
    Smallest-last / core ordering: the removal order of :func:`peel`, a
    min-degree peel over the graph's CSR (vectorised rounds, then a
    bucket queue for the thin residual) that also yields the core
    numbers (:mod:`repro.graph.kcore`). Ties follow sorted rows, so the
    order is a function of the graph alone, whatever the order of its
    edge list. The peel bounds each node's neighbours removed *after*
    it by its core number; :meth:`~repro.graph.dag.OrientedCSR.from_rank`
    points arcs at smaller rank, i.e. at nodes removed *before*, so
    under this order the degeneracy bounds in-degree, not out-degree
    (a hub removed late keeps most of its neighbours as out-arcs). The
    reversed order would bound out-degree by the degeneracy.
``by_score``
    Ascending node score (k-clique counts, Definition 5), ties by id —
    the ordering Algorithm 3 requires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import CSRAdjacency, concat_rows, sorted_unique
from repro.graph.graph import Graph

if TYPE_CHECKING:  # imported for annotations only
    from repro.graph.dynamic import DynamicGraph

OrderingFn = Callable[[Graph], np.ndarray]

#: Anything :func:`resolve` accepts: a named ordering, an explicit rank
#: array (or any integer sequence), or an ordering callable.
OrderSpec = str | Sequence[int] | np.ndarray | OrderingFn


def rank_from_sequence(order: Sequence[int]) -> np.ndarray:
    """Convert an explicit node sequence into a rank array.

    ``order[i]`` is the node placed at position ``i``; the returned array
    maps node id to its position.
    """
    n = len(order)
    rank = np.empty(n, dtype=np.int64)
    rank[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    return rank


def by_id(graph: Graph) -> np.ndarray:
    """Identity ordering: ``rank[u] = u``."""
    return np.arange(graph.n, dtype=np.int64)


def by_degree(graph: Graph) -> np.ndarray:
    """Ascending-degree ordering with id tie-breaks."""
    order = np.lexsort((np.arange(graph.n), graph.degrees))
    return rank_from_sequence(order)


#: Peel rounds continue while they remove at least ``ROUND_MIN`` nodes
#: per round on average, the first ``FREE_ROUNDS`` rounds not counted. A
#: round costs about as much as ``ROUND_MIN`` nodes of the bucket queue
#: (some 20 numpy calls against about a microsecond per node), so the
#: free rounds bound what a peel that never pays (a long path) wastes,
#: and let one that starts thin (a lone low-degree node, a grid's
#: corners) grow into paying rounds.
ROUND_MIN = 32
FREE_ROUNDS = 8


def peel(graph: Graph | DynamicGraph) -> tuple[np.ndarray, np.ndarray]:
    """Min-degree peel over the CSR: ``(removal order, core numbers)``.

    ``order[i]`` is the ``i``-th node removed and ``core[u]`` the core
    number of ``u``. Vectorised rounds come first: each removes, in
    ascending id, every residual node whose residual degree is at most
    the current core level. Within a level, a round looks only at the
    neighbours of the last one; when none is left at the level, one scan
    of the residual nodes raises it to their minimum degree. Once the
    rounds stop paying (see :data:`ROUND_MIN`), a sequential bucket
    queue finishes the residual graph. Both read neighbours in sorted
    row order, so the order depends only on the graph, never on the
    edge list's order. Every node has at most ``core[u]`` neighbours
    removed after it. Runs in ``O(n + m)`` plus ``O(n)`` per core level
    the rounds reach.
    """
    n = graph.n
    csr = graph.csr()
    indptr, cols = csr.indptr, csr.cols
    deg = csr.degrees()
    alive = np.ones(n, dtype=bool)
    rest = np.arange(n, dtype=np.int64)
    bucket = rest[:0]
    removed: list[np.ndarray] = []
    cores: list[np.ndarray] = []
    level = rounds = done = 0
    while done < n and done >= ROUND_MIN * (rounds - FREE_ROUNDS):
        if not len(bucket):
            # Every node at or below the level was in a round, so the
            # minimum residual degree is above it.
            rest = rest[alive[rest]]
            residual = deg[rest]
            level = int(residual.min())
            bucket = rest[residual == level]
        rounds += 1
        done += len(bucket)
        alive[bucket] = False
        removed.append(bucket)
        cores.append(np.full(len(bucket), level, dtype=np.int64))
        nbrs = concat_rows(indptr, cols, bucket)[1]
        np.subtract.at(deg, nbrs, 1)
        bucket = sorted_unique(nbrs[alive[nbrs] & (deg[nbrs] <= level)])
    if done < n:
        tail, tail_core = _bucket_queue(csr, deg, alive, level)
        removed.append(tail)
        cores.append(tail_core)
    order = np.concatenate(removed) if removed else rest
    core = np.zeros(n, dtype=np.int64)
    if n:
        core[order] = np.concatenate(cores)
    return order, core


def _bucket_queue(
    csr: CSRAdjacency, deg: np.ndarray, alive: np.ndarray, level: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential min-degree peel of the residual nodes (``alive``).

    ``deg`` holds their residual degrees and ``level`` the core level
    reached so far. Returns the removal order and the core numbers of
    the residual nodes. Buckets start in ascending id and pop from the
    end; stale entries (a node whose degree dropped since) are skipped
    on pop. Removed nodes have degree -1, so their entries in the full
    rows are skipped too.
    """
    rest = np.flatnonzero(alive)
    # One shared int object per node: gathering references is far
    # cheaper than a fresh int per row entry.
    ids = np.arange(len(deg)).astype(object)
    nbrs, ptr = ids[csr.cols].tolist(), csr.indptr.tolist()
    stop = ptr[1:]
    d = np.where(alive, deg, -1).tolist()
    by_degree = deg[rest]
    bounds = np.cumsum(np.bincount(by_degree)).tolist()
    queued = ids[rest[np.argsort(by_degree, kind="stable")]].tolist()
    buckets = [queued[a:b] for a, b in zip([0, *bounds], bounds)]
    order: list[int] = []
    rises: list[tuple[int, int]] = []  # (position, cursor) where the level rose
    top = level
    cursor = 0
    for _ in range(len(rest)):
        while True:
            bucket = buckets[cursor]
            if not bucket:
                cursor += 1
                continue
            u = bucket.pop()
            if d[u] == cursor:
                break
        if cursor > top:
            top = cursor
            rises.append((len(order), cursor))
        d[u] = -1
        order.append(u)
        for v in nbrs[ptr[u] : stop[u]]:
            dv = d[v]
            if dv > 0:
                dv -= 1
                d[v] = dv
                buckets[dv].append(v)
                if dv < cursor:
                    cursor = dv
    core = np.full(len(order), level, dtype=np.int64)
    for at, value in rises:
        core[at] = value
    return np.fromiter(order, dtype=np.int64, count=len(order)), np.maximum.accumulate(core)


def by_degeneracy(graph: Graph | DynamicGraph) -> np.ndarray:
    """Smallest-last (degeneracy) ordering: the removal order of :func:`peel`.

    Oriented toward smaller rank, as the package orients, this bounds
    in-degree by the degeneracy, not out-degree (see the module
    docstring).
    """
    return rank_from_sequence(peel(graph)[0])


def degeneracy(graph: Graph) -> int:
    """The graph degeneracy (maximum core number)."""
    core = peel(graph)[1]
    return int(core.max()) if graph.n else 0


def by_score(graph: Graph, scores: Sequence[int]) -> np.ndarray:
    """Ascending node-score ordering with id tie-breaks (Algorithm 3)."""
    if len(scores) != graph.n:
        raise InvalidParameterError(
            f"scores has length {len(scores)}, expected n={graph.n}"
        )
    order = np.lexsort((np.arange(graph.n), np.asarray(scores, dtype=np.int64)))
    return rank_from_sequence(order)


_NAMED: dict[str, OrderingFn] = {
    "id": by_id,
    "degree": by_degree,
    "degeneracy": by_degeneracy,
}


def resolve(name_or_rank: OrderSpec, graph: Graph) -> np.ndarray:
    """Resolve an ordering argument into a rank array.

    Accepts a name in ``{"id", "degree", "degeneracy"}``, a rank array of
    length ``n``, or a callable ``graph -> rank array``.
    """
    if isinstance(name_or_rank, str):
        try:
            return _NAMED[name_or_rank](graph)
        except KeyError:
            raise InvalidParameterError(
                f"unknown ordering {name_or_rank!r}; expected one of {sorted(_NAMED)}"
            ) from None
    if callable(name_or_rank):
        return np.asarray(name_or_rank(graph), dtype=np.int64)
    rank = np.asarray(name_or_rank, dtype=np.int64)
    if rank.shape != (graph.n,):
        raise InvalidParameterError(
            f"rank array has shape {rank.shape}, expected ({graph.n},)"
        )
    return rank
