"""Algorithm 2 — clique-score ordering over all stored cliques (``GC``).

Lists and *stores* every k-clique, scores each by the sum of its nodes'
k-clique counts (Definition 6), then scans cliques in ascending
``(score, node-tuple)`` order adding each clique that is still disjoint
from the solution. Near-optimal in practice because low-score cliques
have few clique-graph neighbours (Theorem 2), echoing min-degree greedy
MIS — but memory grows with the clique count, which is the deficiency
Algorithm 3 removes.

``max_cliques`` emulates the paper's OOM outcome: exceeding it raises
:class:`repro.errors.OutOfMemoryError`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidParameterError, OutOfMemoryError
from repro.graph.graph import Graph
from repro.graph.ordering import OrderSpec
from repro.cliques.counting import node_scores
from repro.cliques.listing import iter_cliques
from repro.core.result import CliqueSetResult
from repro.core.scores import clique_key


def store_all_cliques(
    graph: Graph,
    k: int,
    order: OrderSpec = "degeneracy",
    max_cliques: int | None = None,
    scores: np.ndarray | None = None,
    cliques: Sequence[tuple[int, ...]] | None = None,
) -> CliqueSetResult:
    """Compute a disjoint k-clique set with Algorithm 2.

    Parameters
    ----------
    graph:
        Input undirected graph.
    k:
        Clique size, ``>= 2``.
    order:
        DAG orientation used for listing (affects speed, not the result:
        scores and the clique key are orientation-independent).
    max_cliques:
        Memory-budget cap on the number of stored cliques; ``None`` means
        unbounded.
    scores:
        Precomputed node scores for ``k`` (skips the counting pass).
    cliques:
        Precomputed k-clique tuples (skips the enumeration); the budget
        still applies. Both typically come from a session cache. The
        tuples are used as-is (member order is irrelevant downstream),
        so the cached list is never copied element-wise.

    Returns
    -------
    CliqueSetResult
        The greedy-by-score solution; deterministic for a given graph.
    """
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    if scores is None:
        scores = node_scores(graph, k, order)

    stored: list[tuple[int, ...]]
    if cliques is None:
        stored = []
        for clique in iter_cliques(graph, k, order):
            if max_cliques is not None and len(stored) >= max_cliques:
                raise OutOfMemoryError(
                    f"Algorithm 2 exceeded its clique budget of {max_cliques} (k={k})"
                )
            stored.append(tuple(sorted(clique)))
    else:
        if max_cliques is not None and len(cliques) > max_cliques:
            raise OutOfMemoryError(
                f"Algorithm 2 exceeded its clique budget of {max_cliques} (k={k})"
            )
        stored = list(cliques)
    stored.sort(key=lambda c: clique_key(c, scores))

    used = [False] * graph.n
    solution: list[frozenset[int]] = []
    for clique in stored:
        if any(used[u] for u in clique):
            continue
        solution.append(frozenset(clique))
        for u in clique:
            used[u] = True
    stats = {"cliques_stored": float(len(stored)), "cliques_taken": float(len(solution))}
    return CliqueSetResult(solution, k=k, method="gc", stats=stats)
