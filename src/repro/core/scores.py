"""Node scores, clique scores and the Theorem 2 degree bounds.

Definition 5: ``s_n(u)`` = number of k-cliques containing ``u``.
Definition 6: ``s_c(C) = sum_{u in C} s_n(u)``.
Theorem 2:   ``(s_c(C) - k) / (k - 1) <= deg_Gc(C) <= s_c(C) - k``.

The clique score is the paper's cheap surrogate for a clique's degree in
the (never materialised) clique graph; ascending-score processing mimics
min-degree greedy MIS there.
"""

from __future__ import annotations

from typing import Iterable, Sequence

CliqueKey = tuple[int, tuple[int, ...]]


def clique_score(clique: Iterable[int], scores: Sequence[int]) -> int:
    """``s_c(C)``: total node score over the clique's members."""
    return int(sum(scores[u] for u in clique))


def clique_key(clique: Iterable[int], scores: Sequence[int]) -> CliqueKey:
    """Deterministic total order on cliques: ``(score, sorted nodes)``.

    Theorem 4 requires *some* fixed total clique ordering for Algorithm 2
    and Algorithm 3 to coincide; this is the one used across the package.
    """
    members = tuple(sorted(clique))
    return (clique_score(members, scores), members)


def degree_bounds(clique: Iterable[int], scores: Sequence[int], k: int) -> tuple[float, int]:
    """Theorem 2's (lower, upper) bounds on the clique-graph degree."""
    s = clique_score(clique, scores)
    return ((s - k) / (k - 1), s - k)
