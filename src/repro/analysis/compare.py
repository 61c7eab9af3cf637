"""Side-by-side method comparison with validity checks and certificates.

``compare_methods`` runs several solvers on one instance, validates all
outputs, computes the certified optimality gap from
:mod:`repro.analysis.bounds`, and reports timing — the programmatic
equivalent of one row of the paper's Table II, usable on any graph.

All methods run through one :class:`~repro.core.session.Session`, so
shared preprocessing (node scores, clique listings) is computed once
for the whole comparison instead of once per method; pass a session
directly to also reuse caches from earlier solves on the same graph.
The reported per-method ``seconds`` therefore time the solve proper,
with shared preprocessing amortised across the run; a method the
passed session has already solved at ``k`` is answered from its result
memo, so its ``seconds`` time that lookup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence, Union

from repro.graph.graph import Graph
from repro.core.result import verify_solution
from repro.core.session import Session


@dataclass
class MethodComparison:
    """One solver's row in a comparison run."""

    method: str
    size: int
    seconds: float
    coverage: float
    certificate: float
    stats: dict[str, float] = field(default_factory=dict)


def compare_methods(
    graph: Union[Graph, Session],
    k: int,
    methods: Sequence[str] = ("hg", "lp"),
    validate: bool = True,
) -> list[MethodComparison]:
    """Run each method and report size, time, coverage and certificate.

    ``graph`` may be a :class:`Graph` (a fresh session is created) or an
    existing :class:`Session` whose caches should be reused. The
    certificate is ``best_upper_bound / size`` — a guaranteed bound on
    how far the solution can be from optimal (see
    :func:`repro.analysis.bounds.approximation_certificate`).
    """
    session = graph if isinstance(graph, Session) else Session(graph)
    graph = session.graph
    bounds = session.prep.bounds(k)
    rows: list[MethodComparison] = []
    for method in methods:
        start = time.perf_counter()
        result = session.solve(k, method)
        elapsed = time.perf_counter() - start
        if validate:
            verify_solution(graph, k, result.cliques)
        certificate = (
            float("inf")
            if result.size == 0 and bounds.best > 0
            else (bounds.best / result.size if result.size else 0.0)
        )
        rows.append(
            MethodComparison(
                method=method,
                size=result.size,
                seconds=elapsed,
                coverage=result.coverage(graph.n),
                certificate=certificate,
                stats=dict(result.stats),
            )
        )
    return rows
