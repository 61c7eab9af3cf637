"""Certified upper bounds on the optimum |S| (solution-quality analysis).

NP-hardness rules out computing the optimum at scale, but cheap upper
bounds certify how close a heuristic solution is. Three bounds, each
sound (proofs in docstrings) and each computable without the clique
graph:

* **node bound** — every clique consumes k distinct *clique-capable*
  nodes (nodes with non-zero score), so ``OPT <= capable / k``;
* **count bound** — trivially ``OPT <= #k-cliques``;
* **fractional-degree bound** — peeling argument: scanning cliques in
  ascending clique-degree order, each chosen clique forbids at most its
  degree's worth of others; Lemma 1's structure gives the usable form
  ``OPT <= capable_score_mass / k`` refined per connected region. We
  implement its practical surrogate, the *score bound*: each chosen
  clique in the optimum has total node budget ``sum s_n(u) >= k``, and
  the budgets of disjoint cliques never share a node, hence
  ``OPT <= (#nodes u with s_n(u) > 0 weighted by 1) / k`` — identical to
  the node bound — or, sharper, one can spend ``min(s_n(u), 1)`` per
  node. The extra sharpening implemented here is *component-wise*
  rounding: the bound is summed per connected component of the
  clique-capable subgraph with a floor per component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.cliques.counting import node_scores
from repro.cliques.listing import count_cliques


@dataclass(frozen=True)
class OptimumBounds:
    """Upper bounds on the optimal number of disjoint k-cliques."""

    node_bound: int
    count_bound: int
    component_bound: int

    @property
    def best(self) -> int:
        """The tightest of the bounds."""
        return min(self.node_bound, self.count_bound, self.component_bound)


def _capable_components(graph: Graph, capable: list[bool]) -> list[int]:
    """Sizes of connected components of the capable-node subgraph.

    Walks the CSR rows, so it builds no neighbour sets.
    """
    csr = graph.csr()
    seen = [False] * graph.n
    sizes: list[int] = []
    for start in range(graph.n):
        if seen[start] or not capable[start]:
            continue
        stack = [start]
        seen[start] = True
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            for v in csr.row(u).tolist():
                if capable[v] and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        sizes.append(size)
    return sizes


def optimum_upper_bounds(
    graph: Graph,
    k: int,
    scores: np.ndarray | None = None,
    total_cliques: int | None = None,
) -> OptimumBounds:
    """Compute all certified upper bounds on the optimum.

    Soundness: a node with score 0 is in no k-clique, so every clique of
    any solution lives inside the capable subgraph; disjoint cliques in
    one connected component consume k nodes each, giving the per
    component floor ``|component| // k``; summing components dominates
    the plain node bound. The count bound is immediate.

    ``scores`` / ``total_cliques`` accept precomputed values (e.g. from
    a session cache) and skip the corresponding enumeration passes.
    """
    if scores is None:
        scores = node_scores(graph, k)
    capable = [bool(s) for s in scores]
    capable_count = sum(capable)
    if total_cliques is None:
        total_cliques = count_cliques(graph, k)
    component_bound = sum(
        size // k for size in _capable_components(graph, capable)
    )
    return OptimumBounds(
        node_bound=capable_count // k,
        count_bound=total_cliques,
        component_bound=component_bound,
    )


def approximation_certificate(graph: Graph, k: int, solution_size: int) -> float:
    """A certified approximation factor for a given solution size.

    Returns ``bound / solution_size`` using the best upper bound — a
    number that is *guaranteed* to dominate ``OPT / solution_size``.
    Theorem 3 guarantees the true factor is at most ``k`` for any
    maximal solution; in practice this certificate is far smaller.
    Returns ``inf`` for an empty solution on a graph that has cliques.
    """
    bounds = optimum_upper_bounds(graph, k)
    if solution_size == 0:
        return 0.0 if bounds.best == 0 else float("inf")
    return bounds.best / solution_size
