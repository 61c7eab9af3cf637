"""Ablation bench: (k-1)-core pruning as a preprocessing step.

Every k-clique lives in the (k-1)-core, so pruning is solution-
invariant for the score-driven solvers while shrinking sparse graphs —
a cheap win the paper's C++ implementation gets implicitly from its
ordering phase.
"""

import pytest

from repro import Graph
from repro.core.api import find_disjoint_cliques
from repro.graph.generators import barabasi_albert, planted_partition
from repro.graph.kcore import prune_for_cliques


@pytest.fixture(scope="module")
def core_periphery():
    """Dense community core plus a large tree-like BA periphery.

    The periphery (attachment 2) has core number <= 2, so pruning for
    k = 4 strips it entirely while the planted communities survive —
    the regime where core-pruning pays.
    """
    core = planted_partition(800, 20, 0.35, 0.002, seed=31)
    periphery = barabasi_albert(5000, 2, seed=32)
    offset = core.n
    edges = list(core.edges())
    edges += [(u + offset, v + offset) for u, v in periphery.edges()]
    # Sparse attachment of the periphery to the core.
    edges += [(i, offset + i) for i in range(0, 200, 5)]
    return Graph(core.n + periphery.n, edges)


def test_prune_cost(benchmark, core_periphery):
    pruned, mask = benchmark(prune_for_cliques, core_periphery, 4)
    benchmark.extra_info["kept_nodes"] = int(mask.sum())
    benchmark.extra_info["kept_edges"] = pruned.m
    assert pruned.m < core_periphery.m / 2


@pytest.mark.parametrize("pruned_first", (False, True), ids=("raw", "core-pruned"))
def test_lp_with_and_without_pruning(benchmark, core_periphery, pruned_first):
    if pruned_first:
        graph, _ = prune_for_cliques(core_periphery, 4)
    else:
        graph = core_periphery
    result = benchmark.pedantic(
        find_disjoint_cliques, args=(graph, 4, "lp"), rounds=2, iterations=1
    )
    benchmark.extra_info["size"] = result.size


def test_pruning_is_solution_invariant(core_periphery):
    pruned, _ = prune_for_cliques(core_periphery, 4)
    assert (
        find_disjoint_cliques(core_periphery, 4, "lp").sorted_cliques()
        == find_disjoint_cliques(pruned, 4, "lp").sorted_cliques()
    )


def build_core_periphery(smoke: bool):
    """The fixture graph at runner scale: dense core + tree periphery."""
    if smoke:
        core = planted_partition(300, 10, 0.35, 0.004, seed=31)
        periphery = barabasi_albert(1500, 2, seed=32)
        attach = range(0, 100, 5)
    else:
        core = planted_partition(800, 20, 0.35, 0.002, seed=31)
        periphery = barabasi_albert(5000, 2, seed=32)
        attach = range(0, 200, 5)
    offset = core.n
    edges = list(core.edges())
    edges += [(u + offset, v + offset) for u, v in periphery.edges()]
    edges += [(i, offset + i) for i in attach]
    return Graph(core.n + periphery.n, edges)


def cells(smoke: bool = False) -> list:
    """Runner cells: (k-1)-core pruning payoff and solution invariance."""
    from repro.bench.runner import CellSpec, check, quality

    def run() -> dict:
        graph = build_core_periphery(smoke)
        pruned, mask = prune_for_cliques(graph, 4)
        raw = find_disjoint_cliques(graph, 4, "lp")
        on_pruned = find_disjoint_cliques(pruned, 4, "lp")
        return {
            "nodes": graph.n,
            "edges": graph.m,
            "kept_nodes": int(mask.sum()),
            "kept_edges": pruned.m,
            "solution_size": raw.size,
            "gate": {
                "prune_edge_reduction": quality(graph.m / max(pruned.m, 1)),
                "solution_invariant": check(
                    raw.sorted_cliques() == on_pruned.sorted_cliques()
                ),
            },
        }

    config = {"k": 4, "core_seed": 31, "periphery_seed": 32,
              "scale": "smoke" if smoke else "full"}
    return [CellSpec("kcore", run, config)]
