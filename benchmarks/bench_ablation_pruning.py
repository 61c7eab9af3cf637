"""Ablation bench: the score-driven pruning strategy (L vs LP).

The paper's finding: pruning matters more as k grows (up to an order of
magnitude on LJ at k=6), while leaving the output untouched.
"""

import pytest

from repro.core.lightweight import lightweight

KS = (3, 4, 5, 6)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("prune", (False, True), ids=("L", "LP"))
def test_lightweight_prune(benchmark, fb, k, prune):
    result = benchmark.pedantic(
        lightweight, args=(fb, k), kwargs={"prune": prune}, rounds=1, iterations=1
    )
    benchmark.extra_info["size"] = result.size
    benchmark.extra_info["branches_pruned"] = result.stats["branches_pruned"]


@pytest.mark.parametrize("k", (4, 6))
def test_pruning_preserves_output(fb, k):
    assert (
        lightweight(fb, k, prune=True).sorted_cliques()
        == lightweight(fb, k, prune=False).sorted_cliques()
    )


def test_pruning_reduces_findmin_work(fb):
    pruned = lightweight(fb, 5, prune=True)
    assert pruned.stats["branches_pruned"] > 0


def cells(smoke: bool = False) -> list:
    """Runner cells: L vs LP pruning speedup plus output invariance."""
    from repro.bench.experiments import run_ablation_pruning
    from repro.bench.runner import CellSpec, check
    from repro.graph import datasets

    names = ["FB"] if smoke else None
    ks = (3, 4) if smoke else KS

    def run() -> dict:
        result = run_ablation_pruning(names, ks)
        best = max(
            cell["l_seconds"] / max(cell["lp_seconds"], 1e-9)
            for cell in result.data.values()
        )
        fb = datasets.load("FB")
        with_prune = lightweight(fb, 4, prune=True)
        invariant = (
            with_prune.sorted_cliques()
            == lightweight(fb, 4, prune=False).sorted_cliques()
        )
        return {
            "timings": {f"{name}-k{k}": cell
                        for (name, k), cell in result.data.items()},
            "branches_pruned_fb_k4": with_prune.stats["branches_pruned"],
            "l_vs_lp_best": best,
            "gate": {"output_invariant": check(invariant)},
            "artefact": result.text,
        }

    config = {"names": list(names) if names else "all", "ks": list(ks)}
    return [CellSpec("pruning", run, config)]
