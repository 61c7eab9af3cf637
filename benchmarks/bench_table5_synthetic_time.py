"""Table V bench: runtime scalability on synthetic Watts-Strogatz graphs.

The paper's finding: runtimes grow with density; HG stays k-insensitive
while GC/LP track the clique count. Scaled from the paper's n=1M to
n=400 here (pure-Python substrate; see "Datasets" in
docs/benchmarks.md).
"""

import pytest

from repro.core.api import find_disjoint_cliques
from repro.graph.generators import watts_strogatz

N = 400


@pytest.fixture(scope="module")
def ws_graphs():
    return {deg: watts_strogatz(N, deg, 0.3, seed=7) for deg in (8, 16, 32)}


@pytest.mark.parametrize("degree", (8, 16, 32))
@pytest.mark.parametrize("method", ("hg", "lp"))
def test_ws_k3(benchmark, ws_graphs, degree, method):
    result = benchmark.pedantic(
        find_disjoint_cliques, args=(ws_graphs[degree], 3, method),
        rounds=2, iterations=1,
    )
    benchmark.extra_info["size"] = result.size


@pytest.mark.parametrize("method", ("hg", "gc", "lp"))
def test_ws_degree16_k4(benchmark, ws_graphs, method):
    result = benchmark.pedantic(
        find_disjoint_cliques, args=(ws_graphs[16], 4, method),
        rounds=2, iterations=1,
    )
    benchmark.extra_info["size"] = result.size


def test_hg_runtime_k_insensitive(ws_graphs):
    """HG's cost must stay nearly flat in k (paper Table V)."""
    import time

    g = ws_graphs[16]
    times = []
    for k in (3, 4, 5, 6):
        start = time.perf_counter()
        find_disjoint_cliques(g, k, "hg")
        times.append(time.perf_counter() - start)
    assert max(times) < 10 * min(times)


def smoke_synthetic_plan(smoke: bool) -> dict:
    """Shared Watts-Strogatz sweep parameters for Tables V and VI."""
    if smoke:
        return {"degrees": (8, 16), "n": 300, "ks": (3, 4)}
    from repro.bench.harness import scaled

    return {"degrees": (8, 16, 32, 64), "n": scaled(1000, minimum=100),
            "ks": (3, 4, 5, 6)}


def cells(smoke: bool = False) -> list:
    """Runner cells: Table V runtimes from the shared synthetic sweep."""
    from repro.bench.experiments import cached_synthetic_sweep, run_table5
    from repro.bench.runner import CellSpec, check, quality

    plan = smoke_synthetic_plan(smoke)

    def run() -> dict:
        sweep = cached_synthetic_sweep(plan["degrees"], plan["n"], plan["ks"])
        result = run_table5(sweep, plan["degrees"], plan["ks"])
        top_degree = max(plan["degrees"])
        hg_times = [
            sweep[(top_degree, k, "hg")].seconds
            for k in plan["ks"]
            if sweep.get((top_degree, k, "hg"))
            and sweep[(top_degree, k, "hg")].ok
        ]
        insensitive = bool(hg_times) and max(hg_times) < 10 * max(
            min(hg_times), 1e-9
        )
        ok = sum(1 for cell in sweep.values() if cell.ok)
        return {
            "cells_total": len(sweep),
            "cells_with_result": ok,
            "gate": {
                "hg_k_insensitive": check(insensitive),
                "cells_ok_count": quality(ok),
            },
            "artefact": result.text,
        }

    config = {"degrees": list(plan["degrees"]), "n": plan["n"],
              "ks": list(plan["ks"])}
    return [CellSpec("table5", run, config)]
