"""Local clique enumeration over mutable adjacency (dynamic substrate).

The dynamic maintainer constantly enumerates small, *local* clique sets:
all k-cliques through a node, through an edge, or inside a bounded node
set. These helpers work directly on anything exposing ``neighbors(u)``
(both :class:`~repro.graph.graph.Graph` and
:class:`~repro.graph.dynamic.DynamicGraph`), avoiding the subgraph
relabelling that the static listing module uses. Uniqueness is obtained
by ascending-id recursion inside the candidate set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # imported for annotations only
    from repro.graph.dynamic import DynamicGraph
    from repro.graph.graph import Graph


def iter_cliques_within(
    graph: "Graph | DynamicGraph", nodes: Iterable[int], k: int
) -> Iterator[frozenset[int]]:
    """Yield every k-clique whose nodes all lie in ``nodes``, once each."""
    if k < 1:
        return
    pool = sorted(set(nodes))
    if len(pool) < k:
        return
    if k == 1:
        for u in pool:
            yield frozenset((u,))
        return
    pool_set = set(pool)
    # Ascending-id orientation restricted to the pool.
    higher = {
        u: {v for v in graph.neighbors(u) if v > u and v in pool_set} for u in pool
    }

    def extend(prefix: list[int], candidates: set[int], need: int) -> Iterator[frozenset[int]]:
        if need == 1:
            for v in candidates:
                yield frozenset(prefix + [v])
            return
        for v in sorted(candidates):
            nxt = candidates & higher[v]
            if len(nxt) >= need - 1:
                prefix.append(v)
                yield from extend(prefix, nxt, need - 1)
                prefix.pop()

    for u in pool:
        cand = higher[u]
        if len(cand) >= k - 1:
            yield from extend([u], cand, k - 1)


def cliques_through_node(
    graph: "Graph | DynamicGraph", u: int, k: int
) -> Iterator[frozenset[int]]:
    """Yield every k-clique of ``graph`` containing node ``u``, once each."""
    if k < 1:
        return
    if k == 1:
        yield frozenset((u,))
        return
    neigh = graph.neighbors(u)
    if len(neigh) < k - 1:
        return
    for sub in iter_cliques_within(graph, neigh, k - 1):
        yield sub | {u}


def cliques_through_edge(
    graph: "Graph | DynamicGraph", u: int, v: int, k: int
) -> Iterator[frozenset[int]]:
    """Yield every k-clique containing edge ``(u, v)``, once each."""
    if k < 2 or not graph.has_edge(u, v):
        return
    if k == 2:
        yield frozenset((u, v))
        return
    common = graph.neighbors(u) & graph.neighbors(v)
    if len(common) < k - 2:
        return
    for sub in iter_cliques_within(graph, common, k - 2):
        yield sub | {u, v}
