"""k-clique listing on a DAG orientation (the kClist framework).

This is the paper's required substrate (Section III, refs [13]–[18]): a
total ordering orients the graph, and each k-clique is produced exactly
once from its largest-rank node (*root*) by recursively intersecting
out-neighbourhoods. The degeneracy ordering yields the standard
``O(k · m · (d/2)^(k-2))`` bound.

The recursion runs on the level-synchronous frontier engine of
:mod:`repro.cliques.csr_kernels`, over the oriented CSR of the graph,
so listing and counting build no per-node Python sets. Cliques are
yielded as tuples whose first element is the root; use ``sorted(c)``
for a canonical form.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import InvalidParameterError
from repro.graph.dag import OrientedCSR, OrientedGraph
from repro.graph.graph import Graph
from repro.graph import ordering as _ordering
from repro.cliques.csr_kernels import count_cliques_csr, iter_cliques_csr


def _check_k(k: int) -> None:
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")


def iter_cliques(
    graph: Graph,
    k: int,
    order: _ordering.OrderSpec = "degeneracy",
) -> Iterator[tuple[int, ...]]:
    """Yield every k-clique of ``graph`` exactly once.

    Parameters
    ----------
    graph:
        The undirected input graph.
    k:
        Clique size, ``>= 1`` (``k=1`` yields nodes, ``k=2`` edges).
    order:
        Ordering name, rank array or callable (see
        :func:`repro.graph.ordering.resolve`).
    """
    _check_k(k)
    rank = _ordering.resolve(order, graph)
    return iter_cliques_csr(OrientedCSR.from_rank(graph, rank), k)


def iter_cliques_oriented(dag: OrientedGraph, k: int) -> Iterator[tuple[int, ...]]:
    """Yield every k-clique of an already-oriented graph exactly once."""
    _check_k(k)
    return iter_cliques_csr(dag.csr(), k)


def count_cliques(
    graph: Graph,
    k: int,
    order: _ordering.OrderSpec = "degeneracy",
    dag: OrientedGraph | None = None,
) -> int:
    """Total number of k-cliques, enumerated without storing them.

    ``dag`` supplies an already-oriented graph (e.g. a session cache),
    in which case ``order`` is ignored.
    """
    _check_k(k)
    if k == 1:
        return graph.n
    if k == 2:
        return graph.m
    if dag is not None:
        ocsr = dag.csr()
    else:
        ocsr = OrientedCSR.from_rank(graph, _ordering.resolve(order, graph))
    return count_cliques_csr(ocsr, k)


def iter_cliques_in_nodes(
    graph: Graph, nodes: Iterable[int], k: int
) -> Iterator[frozenset[int]]:
    """Yield every k-clique of the subgraph induced on ``nodes``."""
    sub, mapping = graph.subgraph_with_mapping(nodes)
    for clique in iter_cliques(sub, k, order="degree"):
        yield frozenset(mapping[w] for w in clique)
