"""Result container and validators for disjoint k-clique sets.

Every solver returns a :class:`CliqueSetResult`; :func:`verify_solution`
checks the two problem invariants (each member is a k-clique of the
graph; members are pairwise node-disjoint) and :func:`is_maximal` checks
Definition 3's maximality, the precondition of the paper's
k-approximation guarantee (Theorem 3).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.errors import InvalidParameterError, SolutionError

if TYPE_CHECKING:  # imported for annotations only: core sits above graph
    from repro.graph.dynamic import DynamicGraph
    from repro.graph.graph import Graph

Clique = frozenset[int]


def canonicalize(cliques: Iterable[Iterable[int]]) -> list[Clique]:
    """Normalise an iterable of node collections into sorted frozensets."""
    return [frozenset(c) for c in cliques]


@dataclass
class CliqueSetResult:
    """A disjoint k-clique set plus solver metadata.

    Attributes
    ----------
    cliques:
        The solution, as frozensets of node ids.
    k:
        The clique size solved for.
    method:
        Solver tag (``"hg" | "gc" | "l" | "lp" | "opt"`` or custom).
    stats:
        Free-form solver counters (cliques enumerated, heap pops, ...).
    """

    cliques: list[Clique]
    k: int
    method: str = ""
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of cliques in the solution (the paper's ``|S|``)."""
        return len(self.cliques)

    @property
    def covered_nodes(self) -> set[int]:
        """Union of all member cliques' nodes."""
        covered: set[int] = set()
        for clique in self.cliques:
            covered |= clique
        return covered

    def coverage(self, n: int) -> float:
        """Fraction of the graph's nodes covered (paper: 75% on Orkut, k=4)."""
        return len(self.covered_nodes) / n if n else 0.0

    def sorted_cliques(self) -> list[tuple[int, ...]]:
        """Deterministic canonical listing (each clique sorted, then lex)."""
        return sorted(tuple(sorted(c)) for c in self.cliques)

    def copy(self) -> "CliqueSetResult":
        """A copy with its own clique list and stats dict (the cliques
        are frozensets, so they are shared)."""
        return CliqueSetResult(list(self.cliques), self.k, self.method, dict(self.stats))

    def __iter__(self) -> Iterator[Clique]:
        return iter(self.cliques)

    def __len__(self) -> int:
        return len(self.cliques)

    def __repr__(self) -> str:
        return (
            f"CliqueSetResult(size={self.size}, k={self.k}, "
            f"method={self.method!r})"
        )


def verify_solution(
    graph: "Graph | DynamicGraph", k: int, cliques: Iterable[Iterable[int]]
) -> None:
    """Raise :class:`SolutionError` unless ``cliques`` is a valid solution.

    Checks: every member has exactly ``k`` distinct nodes, induces a
    complete subgraph of ``graph``, and no node appears in two members.
    Works with both static and dynamic graphs (anything exposing
    ``has_edge``).
    """
    seen: set[int] = set()
    for clique in cliques:
        members = sorted(set(clique))
        if len(members) != k:
            raise SolutionError(
                f"clique {sorted(clique)} has {len(members)} distinct nodes, "
                f"expected k={k}"
            )
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if not graph.has_edge(u, v):
                    raise SolutionError(
                        f"clique {members} is missing edge ({u}, {v})"
                    )
        overlap = seen.intersection(members)
        if overlap:
            raise SolutionError(
                f"clique {members} overlaps earlier cliques on nodes {sorted(overlap)}"
            )
        seen.update(members)


def is_int(value: object) -> bool:
    """Whether ``value`` is an integer, numpy's included (``bool`` excluded)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_seedable_clique(
    graph: "Graph | DynamicGraph",
    k: int,
    clique: Iterable[int],
    alive: Callable[[int], bool],
) -> bool:
    """Whether ``clique`` can seed a warm-started engine.

    True when the clique has exactly ``k`` distinct in-range nodes, all
    still available per the ``alive(node) -> bool`` predicate, and is a
    complete subgraph of ``graph``. Shared by the resumable engines'
    ``warm_start`` filters so their seeding semantics cannot diverge.
    """
    members = sorted(set(clique))
    if len(members) != k:
        return False
    if not all(0 <= u < graph.n and alive(u) for u in members):
        return False
    return all(
        graph.has_edge(u, v)
        for i, u in enumerate(members)
        for v in members[i + 1 :]
    )


def checked_clique(
    graph: "Graph | DynamicGraph", k: int, raw: object, what: str
) -> tuple[int, ...]:
    """``raw`` as a sorted k-clique of ``graph``, else a typed error.

    The resumable engines' restore check on a checkpoint's cliques:
    ``raw`` must be a list or tuple of ``k`` distinct ints forming a
    k-clique of ``graph``, or :class:`InvalidParameterError` names it as
    ``what``.
    """
    if (
        isinstance(raw, (list, tuple))
        and len(raw) == k
        and all(is_int(v) for v in raw)
        and is_seedable_clique(graph, k, raw, lambda v: True)
    ):
        return tuple(sorted(int(v) for v in raw))
    raise InvalidParameterError(
        f"{what} {raw!r} is not {k} distinct nodes forming a "
        f"{k}-clique of the graph"
    )


def checked_solution(
    graph: "Graph | DynamicGraph", k: int, raw: Iterable[object]
) -> list[tuple[int, ...]]:
    """A checkpoint's solution as pairwise-disjoint sorted k-cliques.

    Each clique passes :func:`checked_clique`; one that shares a node
    with an earlier one raises :class:`InvalidParameterError`.
    """
    solution: list[tuple[int, ...]] = []
    used: set[int] = set()
    for clique_raw in raw:
        clique = checked_clique(graph, k, clique_raw, "solution clique")
        if used.intersection(clique):
            raise InvalidParameterError(
                f"solution clique {clique_raw!r} overlaps an earlier one"
            )
        used.update(clique)
        solution.append(clique)
    return solution


def is_valid(
    graph: "Graph | DynamicGraph", k: int, cliques: Iterable[Iterable[int]]
) -> bool:
    """Boolean form of :func:`verify_solution`."""
    try:
        verify_solution(graph, k, cliques)
    except SolutionError:
        return False
    return True


def is_maximal(
    graph: "Graph | DynamicGraph", k: int, cliques: Iterable[Iterable[int]]
) -> bool:
    """Whether no further disjoint k-clique can be added (Definition 3).

    Enumerates k-cliques of the residual graph induced on uncovered
    nodes; exponential in the worst case, intended for tests and small
    instances.
    """
    from repro.cliques.listing import iter_cliques_in_nodes

    covered: set[int] = set()
    for clique in cliques:
        covered |= set(clique)
    if hasattr(graph, "snapshot"):
        graph = graph.snapshot()
    free = [u for u in range(graph.n) if u not in covered]
    for _ in iter_cliques_in_nodes(graph, free, k):
        return False
    return True
