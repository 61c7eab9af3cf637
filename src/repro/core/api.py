"""Unified one-shot solver entry point (legacy compatibility path).

:func:`find_disjoint_cliques` dispatches on a method tag matching the
paper's competitor names:

==========  ============================================================
tag         algorithm
==========  ============================================================
``hg``      Algorithm 1, basic greedy framework
``gc``      Algorithm 2, stored cliques in ascending clique-score order
``l``       Algorithm 3 without score pruning
``lp``      Algorithm 3 with score pruning (the paper's headline method)
``opt``     exact: clique graph + exact MIS (blossom matching for k = 2)
``opt-bb``  exact: direct branch-and-bound over cliques (cross-check)
==========  ============================================================

Every call delegates to a throwaway :class:`repro.core.session.Session`.
When you solve the same graph more than once — different k values,
different methods, repeated queries — create a session yourself so the
shared preprocessing (node scores, clique listings, orientations) is
computed once::

    session = Session(graph)
    for k in (3, 4, 5):
        result = session.solve(k, method="lp")
"""

from __future__ import annotations

from repro.graph.graph import Graph
from repro.core.registry import REGISTRY
from repro.core.result import CliqueSetResult
from repro.core.session import Session

#: Registered method tags, in registration order.
METHODS = REGISTRY.tags()


def find_disjoint_cliques(
    graph: Graph,
    k: int,
    method: str = "lp",
    **kwargs: object,
) -> CliqueSetResult:
    """Find a (near-)maximum set of pairwise disjoint k-cliques.

    Parameters
    ----------
    graph:
        Input undirected graph (:class:`repro.graph.Graph`; use
        ``DynamicGraph.snapshot()`` for dynamic graphs).
    k:
        Clique size, ``>= 2``. The paper's applications use 3-6.
    method:
        One of ``"hg" | "gc" | "l" | "lp" | "opt" | "opt-bb"`` (default
        ``"lp"``).
    **kwargs:
        Typed per-method options, validated by the method's
        :class:`repro.core.registry.SolveOptions` class: ``order``
        (hg), ``max_cliques`` (gc/opt/opt-bb), ``time_budget``
        (opt/opt-bb); ``l``/``lp`` take none. Unknown names raise
        :class:`repro.errors.InvalidParameterError` listing the valid
        options for the chosen method.

    Returns
    -------
    CliqueSetResult

    Examples
    --------
    >>> from repro.graph.generators import planted_clique_packing
    >>> g, planted = planted_clique_packing(4, 3, seed=7)
    >>> result = find_disjoint_cliques(g, k=3, method="lp")
    >>> result.size
    4
    """
    return Session(graph).solve(k, method, **kwargs)
