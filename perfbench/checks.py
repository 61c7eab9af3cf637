"""Output checks run after the timed phase."""

from __future__ import annotations

from repro import is_maximal, verify_solution
from repro.errors import SolutionError


def solution_errors(graph: object, k: int, cliques: list, label: str) -> list[str]:
    """Why ``cliques`` is not a valid, maximal disjoint k-clique set of
    ``graph`` (empty when it is)."""
    try:
        verify_solution(graph, k, cliques)
    except SolutionError as exc:
        return [f"{label}: {exc}"]
    if not is_maximal(graph, k, cliques):
        return [f"{label}: solution is not maximal"]
    return []

