"""Shared fixtures and helpers for the benchmark suite.

Each ``bench_*`` file regenerates one of the paper's tables or figures
(see the suite index in docs/benchmarks.md). Benchmarks run at reduced
scale so the whole suite finishes in minutes; the full-scale artefacts
for EXPERIMENTS.md come from ``python -m repro.bench.experiments all``
or — with manifests and a regression gate — ``python -m repro bench
--reproduce-all``.

Seeds and update streams are canonical: every benchmark draws them from
:mod:`repro.bench.workloads` (directly or via the fixtures below), so
the pytest-driven benchmarks and the ``repro bench`` runner measure
identical workloads.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.workloads import bench_workload, seed_manifest  # noqa: E402
from repro.graph import datasets  # noqa: E402


@pytest.fixture(scope="session")
def ftb():
    """Tiny Football-like dataset (115 nodes)."""
    return datasets.load("FTB")


@pytest.fixture(scope="session")
def hst():
    """Small Hamsterster-like dataset (1.9K nodes)."""
    return datasets.load("HST")


@pytest.fixture(scope="session")
def fb():
    """Dense clique-rich Facebook-like dataset (1.2K nodes)."""
    return datasets.load("FB")


@pytest.fixture(scope="session")
def fbp():
    """Medium FBPages-like dataset (4K nodes)."""
    return datasets.load("FBP")


@pytest.fixture(scope="session")
def bench_seeds():
    """The canonical seed manifest every benchmark stream derives from."""
    return seed_manifest()


@pytest.fixture(scope="session")
def workload_factory():
    """Canonical workload builder: ``(graph, kind, count) -> (start, updates)``.

    The same entry point the ``repro bench`` runner records into its
    manifests, so fixtures and runner cells share seeds by construction.
    """
    return bench_workload
