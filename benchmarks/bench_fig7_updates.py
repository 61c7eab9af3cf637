"""Figure 7 bench: average update latency per workload vs k.

The paper's finding: single-update maintenance is micro/millisecond
scale — orders of magnitude below rebuild — and grows with k.

All update streams come from :mod:`repro.bench.workloads`, so these
benchmarks, Table VIII and the ``repro bench`` runner time identical
workloads.
"""

import pytest

from repro.bench.workloads import bench_workload
from repro.dynamic import DynamicDisjointCliques

COUNT = 60


@pytest.mark.parametrize("k", (3, 4))
def test_deletion_latency(benchmark, hst, k):
    _, updates = bench_workload(hst, "deletion", COUNT)

    def setup():
        return (DynamicDisjointCliques(hst, k),), {}

    def run(dyn):
        dyn.apply(updates)

    benchmark.pedantic(run, setup=setup, rounds=2, iterations=1)
    benchmark.extra_info["updates_per_round"] = COUNT


@pytest.mark.parametrize("k", (3, 4))
def test_insertion_latency(benchmark, hst, k):
    _, deletions = bench_workload(hst, "deletion", COUNT)
    insertions = [("insert", u, v) for _, u, v in deletions]

    def setup():
        dyn = DynamicDisjointCliques(hst, k)
        dyn.apply(deletions)
        return (dyn,), {}

    def run(dyn):
        dyn.apply(insertions)

    benchmark.pedantic(run, setup=setup, rounds=2, iterations=1)
    benchmark.extra_info["updates_per_round"] = COUNT


@pytest.mark.parametrize("k", (3, 4))
def test_mixed_latency(benchmark, hst, k):
    start_graph, updates = bench_workload(hst, "mixed", COUNT)

    def setup():
        return (DynamicDisjointCliques(start_graph, k),), {}

    def run(dyn):
        dyn.apply(updates)

    benchmark.pedantic(run, setup=setup, rounds=2, iterations=1)
    benchmark.extra_info["updates_per_round"] = 2 * COUNT


def test_update_beats_rebuild_by_orders_of_magnitude(hst):
    """One maintained update must cost << one rebuild (paper: the OR
    rebuild equals ~millions of update operations)."""
    import time

    _, updates = bench_workload(hst, "deletion", COUNT)
    dyn = DynamicDisjointCliques(hst, 4)
    start = time.perf_counter()
    dyn.apply(updates)
    per_update = (time.perf_counter() - start) / COUNT

    from repro.core.api import find_disjoint_cliques

    start = time.perf_counter()
    find_disjoint_cliques(dyn.graph.snapshot(), 4, "lp")
    rebuild = time.perf_counter() - start
    assert rebuild > 30 * per_update


def smoke_dynamic_plan(smoke: bool) -> dict:
    """Shared dynamic-sweep parameters for Figure 7 and Table VIII."""
    if smoke:
        return {"names": ["FTB"], "ks": (3, 4), "count": 40}
    from repro.bench.harness import scaled
    from repro.graph import datasets

    return {"names": list(datasets.TABLE1_NAMES), "ks": (3, 4, 5, 6),
            "count": scaled(200, minimum=10)}


def cells(smoke: bool = False) -> list:
    """Runner cells: Figure 7 plus the rebuild-vs-update latency ratio."""
    import time

    from repro.bench.experiments import cached_dynamic_sweep, run_fig7
    from repro.bench.runner import CellSpec
    from repro.core.api import find_disjoint_cliques
    from repro.graph import datasets

    plan = smoke_dynamic_plan(smoke)

    def run() -> dict:
        sweep = cached_dynamic_sweep(plan["names"], plan["ks"], plan["count"])
        result = run_fig7(sweep, plan["names"], plan["ks"])
        # Direct differential measurement (same protocol as the pytest
        # test): one maintained update vs one rebuild on the first
        # dataset of the plan.
        graph = datasets.load(plan["names"][0])
        count = min(plan["count"], graph.m // 4)
        _, updates = bench_workload(graph, "deletion", count)
        dyn = DynamicDisjointCliques(graph, 4)
        start = time.perf_counter()
        dyn.apply(updates)
        per_update = (time.perf_counter() - start) / count
        start = time.perf_counter()
        find_disjoint_cliques(dyn.graph.snapshot(), 4, "lp")
        rebuild = time.perf_counter() - start
        return {
            "per_update_s": per_update,
            "rebuild_s": rebuild,
            "rebuild_vs_update": rebuild / max(per_update, 1e-12),
            "artefact": result.text,
        }

    config = {"names": plan["names"], "ks": list(plan["ks"]),
              "count": plan["count"]}
    return [CellSpec("fig7", run, config)]
