"""Per-node k-clique counting without storing cliques (node scores).

Definition 5 of the paper: the *node score* ``s_n(u)`` is the number of
k-cliques containing ``u``. Algorithm 3 computes all scores in a single
enumeration pass that never materialises the clique list, keeping memory
at ``O(n + m)`` — this module is that pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.dag import OrientedCSR, OrientedGraph
from repro.graph.graph import Graph
from repro.graph import ordering as _ordering
from repro.cliques.csr_kernels import node_scores_csr


def node_scores(
    graph: Graph,
    k: int,
    order: _ordering.OrderSpec = "degeneracy",
    dag: OrientedGraph | None = None,
) -> np.ndarray:
    """int64 array of per-node k-clique counts (``s_n``).

    Enumerates every k-clique once with the frontier engine of
    :mod:`repro.cliques.csr_kernels` and credits every member node.
    Specialised fast paths handle ``k <= 2``. ``dag`` supplies an
    already-oriented graph (e.g. a session cache), in which case
    ``order`` is ignored.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    scores = np.zeros(graph.n, dtype=np.int64)
    if k == 1:
        scores[:] = 1
        return scores
    if k == 2:
        return graph.degrees.astype(np.int64).copy()
    if dag is not None:
        ocsr = dag.csr()
    else:
        ocsr = OrientedCSR.from_rank(graph, _ordering.resolve(order, graph))
    return node_scores_csr(ocsr, k, scores)


def clique_profile(
    graph: Graph,
    ks: Sequence[int] = (3, 4, 5, 6),
    order: _ordering.OrderSpec = "degeneracy",
) -> dict[int, int]:
    """Number of k-cliques for each k in ``ks`` (Table I statistics)."""
    from repro.cliques.listing import count_cliques

    return {k: count_cliques(graph, k, order) for k in ks}
