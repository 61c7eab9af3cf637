"""The clique graph (Definition 2): one node per k-clique, edges on overlap.

This is the structure the straightforward baseline materialises before
running maximum-independent-set — and precisely the overhead the paper's
contribution avoids. We build it only for the ``OPT`` baseline and for
validating Theorem 2's degree bounds on small graphs; it grows as the
square of the clique count, so callers should cap instance sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from repro.graph.graph import Graph
from repro.cliques.listing import iter_cliques


@dataclass
class CliqueGraph:
    """Clique graph of ``G`` for a fixed ``k``.

    Attributes
    ----------
    cliques:
        Canonical (sorted-tuple) k-cliques; index = clique-graph node id.
    graph:
        The clique graph itself, a :class:`Graph` on ``len(cliques)``
        nodes with an edge between every two overlapping cliques.
    """

    cliques: list[tuple[int, ...]]
    graph: Graph

    @property
    def num_cliques(self) -> int:
        """Number of k-cliques (= clique-graph nodes)."""
        return len(self.cliques)

    def degree_of(self, index: int) -> int:
        """Clique degree (Definition 4) of clique ``index``."""
        return self.graph.degree(index)


def build_clique_graph(
    graph: Graph,
    k: int,
    max_cliques: int | None = None,
    cliques: Sequence[tuple[int, ...]] | None = None,
) -> CliqueGraph:
    """Construct the clique graph of ``graph`` for clique size ``k``.

    Parameters
    ----------
    max_cliques:
        Optional safety cap; :class:`MemoryError` is raised when the
        clique count exceeds it, mirroring the paper's OOM outcome for
        the straightforward baseline.
    cliques:
        Precomputed k-cliques as canonical sorted tuples (e.g. a
        session cache); skips the enumeration. The cap still applies.
        Tuples are trusted to be canonical (so the cached list is not
        copied element-wise); other collections are canonicalized.

    Without ``cliques``, the enumerated cliques are numbered in sorted
    order, as :meth:`repro.core.session.Preprocessing.cliques` caches
    them, so a direct build and a session's build agree index for index
    (and an exact MIS over either breaks ties alike).
    """
    source = cliques
    if source is None:
        # One clique past the cap is enough to fail; never list more.
        limit = None if max_cliques is None else max_cliques + 1
        source = sorted(tuple(sorted(c)) for c in islice(iter_cliques(graph, k), limit))
    cliques = []
    membership: dict[int, list[int]] = {}
    for clique in source:
        # Tuples are trusted canonical; other collections are sorted.
        canon = clique if isinstance(clique, tuple) else tuple(sorted(clique))
        index = len(cliques)
        if max_cliques is not None and index >= max_cliques:
            raise MemoryError(
                f"clique graph exceeds cap of {max_cliques} cliques (k={k})"
            )
        cliques.append(canon)
        for u in canon:
            membership.setdefault(u, []).append(index)

    edges: set[tuple[int, int]] = set()
    for indices in membership.values():
        for i, a in enumerate(indices):
            for b in indices[i + 1 :]:
                edges.add((a, b) if a < b else (b, a))
    return CliqueGraph(cliques, Graph(len(cliques), sorted(edges)))
