"""Canonical benchmark seeds and shared workload construction.

Every benchmark — the pytest-driven ``benchmarks/bench_*.py`` cells
and the :mod:`repro.bench.experiments` runners — must measure the *same* streams, or cross-run comparisons
silently compare different workloads. This module is the single place
those seeds live:

* :data:`SEEDS` names every random stream the benchmarks draw from;
* :func:`stream_seed` maps an update-workload kind to its stream seed;
* :func:`bench_workload` builds a Section VI-E workload with the
  canonical seed (delegating to
  :func:`repro.dynamic.workload.make_workload`);
* :func:`seed_manifest` is what the :mod:`repro.bench.runner` records
  into every run's ``manifest.json``, so a result directory documents
  exactly which streams produced it.

Changing a value here changes what every benchmark measures — treat the
table like a file format and bump deliberately.
"""

from __future__ import annotations

from repro.dynamic.workload import Update, make_workload
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph

#: Every named random stream used by the benchmark suites. Grouped by
#: consumer; keep values stable (they define what every recorded run
#: measured).
SEEDS: dict[str, int] = {
    # Synthetic benchmark graphs (powerlaw_cluster / watts_strogatz).
    "synthetic_graph": 7,
    # Fig 1 social graph.
    "social_graph": 9,
    # Deletion/insertion update streams (Section VI-E).
    "update_stream": 11,
    # Mixed update streams (pre-delete + interleaved re-insert/delete).
    "mixed_stream": 12,
    # Fig 1 conversion-model simulation RNG.
    "conversion_rng": 4,
}


def seed_for(stream: str) -> int:
    """Canonical seed of a named stream (see :data:`SEEDS`)."""
    try:
        return SEEDS[stream]
    except KeyError:
        raise InvalidParameterError(
            f"unknown benchmark stream {stream!r}; known: {sorted(SEEDS)}"
        ) from None


def stream_seed(kind: str) -> int:
    """Seed for an update-workload ``kind`` (deletion/insertion/mixed)."""
    if kind in ("deletion", "insertion"):
        return SEEDS["update_stream"]
    if kind == "mixed":
        return SEEDS["mixed_stream"]
    raise InvalidParameterError(
        f"unknown workload kind {kind!r}; expected deletion, insertion or mixed"
    )


def bench_workload(
    graph: Graph, kind: str, count: int
) -> tuple[Graph, list[Update]]:
    """Build the canonical benchmark workload: ``(start_graph, updates)``.

    Same contract as :func:`repro.dynamic.workload.make_workload`, with
    the seed pinned by :func:`stream_seed` — the one entry point the
    runner and the pytest benchmarks share so they time identical
    streams.
    """
    return make_workload(graph, kind, count, seed=stream_seed(kind))


def seed_manifest() -> dict[str, int]:
    """A copy of :data:`SEEDS` for embedding into run manifests."""
    return dict(SEEDS)
