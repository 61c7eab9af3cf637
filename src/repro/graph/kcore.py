"""k-core decomposition and clique-aware preprocessing.

The core numbers come from the same min-degree peel over the CSR that
yields the degeneracy order (:func:`repro.graph.ordering.peel`).

Every node of a k-clique has at least ``k - 1`` neighbours inside it, so
all k-cliques live in the ``(k-1)``-core. Pruning the graph to that core
before solving shrinks sparse instances dramatically without changing
the clique population — and therefore (because node scores and the
package's clique key are computed from cliques alone) without changing
the GC/L/LP solution either, which the test suite verifies.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.graph.ordering import peel


def core_numbers(graph: Graph) -> np.ndarray:
    """Core number of every node.

    ``core[u]`` is the largest c such that u survives in the c-core:
    the core numbers of the min-degree peel
    (:func:`repro.graph.ordering.peel`).
    """
    return peel(graph)[1]


def kcore_nodes(graph: Graph, c: int) -> list[int]:
    """Nodes of the c-core (maximal subgraph with min degree >= c)."""
    core = core_numbers(graph)
    return [u for u in range(graph.n) if core[u] >= c]


def prune_for_cliques(graph: Graph, k: int) -> tuple[Graph, np.ndarray]:
    """Restrict to the (k-1)-core, preserving node ids.

    Returns ``(pruned_graph, kept_mask)`` where ``pruned_graph`` has the
    same node universe with non-core nodes isolated — so clique node ids
    remain directly comparable. Every k-clique of the input survives.
    """
    keep = set(kcore_nodes(graph, k - 1))
    mask = np.zeros(graph.n, dtype=bool)
    for u in keep:
        mask[u] = True
    edges = [(u, v) for u, v in graph.edges() if u in keep and v in keep]
    return Graph(graph.n, edges), mask
