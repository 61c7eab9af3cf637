"""Core-solver tests: HG, GC, L, LP and OPT on shared scenarios."""

import pytest

from repro import Graph, find_disjoint_cliques, is_maximal, verify_solution
from repro.core.basic import basic_framework
from repro.core.exact import exact_optimum
from repro.core.lightweight import lightweight
from repro.core.store_all import store_all_cliques
from repro.errors import InvalidParameterError, OutOfMemoryError
from repro.graph.generators import (
    complete_graph,
    planted_clique_packing,
    ring_of_cliques,
)
from tests.conftest import brute_force_max_disjoint

ALL_METHODS = ["hg", "gc", "l", "lp", "opt"]
HEURISTICS = ["hg", "gc", "l", "lp"]


class TestValidity:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("k", [3, 4])
    def test_solutions_valid_and_maximal(self, random_graphs, method, k):
        for g in random_graphs:
            result = find_disjoint_cliques(g, k, method=method)
            verify_solution(g, k, result.cliques)
            assert is_maximal(g, k, result.cliques)
            assert result.k == k and result.method == method

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_empty_graph(self, method):
        assert find_disjoint_cliques(Graph(0), 3, method=method).size == 0

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_no_cliques(self, method):
        path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert find_disjoint_cliques(path, 3, method=method).size == 0


class TestPlantedOptimum:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_clean_planting_recovered(self, method, k):
        g, planted = planted_clique_packing(6, k, seed=13)
        result = find_disjoint_cliques(g, k, method=method)
        assert result.size == len(planted)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_noisy_planting_at_least_recovers_count(self, method):
        g, planted = planted_clique_packing(
            5, 3, extra_nodes=4, noise_edges=12, seed=3
        )
        result = find_disjoint_cliques(g, 3, method=method)
        assert result.size >= len(planted) - 1  # heuristics may trade one

    def test_opt_on_ring_of_cliques(self):
        g = ring_of_cliques(5, 3)
        assert exact_optimum(g, 3).size == 5

    @pytest.mark.parametrize("method", HEURISTICS)
    def test_heuristics_on_ring_of_cliques(self, method):
        g = ring_of_cliques(6, 4)
        result = find_disjoint_cliques(g, 4, method=method)
        assert result.size == 6


class TestSetPackingInstances:
    """Three triangles where taking the one that touches both others packs one."""

    HUB = [(0, 1, 2), (1, 3, 4), (2, 5, 6)]  # (0, 1, 2) touches both others
    CHAIN = [(0, 1, 2), (2, 3, 4), (4, 5, 6)]  # (2, 3, 4) touches both others

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("triangles", [HUB, CHAIN], ids=["hub", "chain"])
    def test_two_of_three(self, triangles, method):
        edges = {(a, b) for t in triangles for a in t for b in t if a < b}
        assert find_disjoint_cliques(Graph(7, sorted(edges)), 3, method=method).size == 2


class TestAgainstBruteForce:
    @pytest.mark.parametrize("k", [3, 4])
    def test_opt_is_optimal(self, random_graphs, k):
        for g in random_graphs:
            if g.n > 18:
                continue
            expected = brute_force_max_disjoint(g, k)
            assert exact_optimum(g, k).size == expected

    @pytest.mark.parametrize("method", HEURISTICS)
    @pytest.mark.parametrize("k", [3, 4])
    def test_heuristics_bounded_by_opt(self, random_graphs, method, k):
        for g in random_graphs:
            if g.n > 18:
                continue
            opt = brute_force_max_disjoint(g, k)
            got = find_disjoint_cliques(g, k, method=method).size
            assert got <= opt
            # Theorem 3: any maximal solution is a k-approximation.
            assert k * got >= opt


class TestBasicFramework:
    def test_paper_example_runs_to_maximal(self, paper_graph):
        # Example 2 uses the id ordering; any run must produce a maximal
        # disjoint triangle set of size >= 2 (the example finds 2; our
        # deterministic FindOne happens to find the maximum, 3).
        result = basic_framework(paper_graph, 3, order="id")
        verify_solution(paper_graph, 3, result.cliques)
        assert is_maximal(paper_graph, 3, result.cliques)
        assert result.size >= 2

    def test_ordering_changes_outcome_shape(self, paper_graph):
        for order in ("id", "degree", "degeneracy"):
            result = basic_framework(paper_graph, 3, order=order)
            verify_solution(paper_graph, 3, result.cliques)

    def test_stats_populated(self, paper_graph):
        result = basic_framework(paper_graph, 3)
        assert result.stats["cliques_taken"] == result.size
        assert result.stats["findone_calls"] >= result.size

    def test_k2_greedy_matching(self, paper_graph):
        result = basic_framework(paper_graph, 2)
        verify_solution(paper_graph, 2, result.cliques)
        # Greedy maximal matching is at least half the maximum (15 edges,
        # maximum matching 4).
        assert result.size >= 2

    def test_invalid_k(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            basic_framework(paper_graph, 1)


class TestStoreAll:
    def test_memory_cap(self, paper_graph):
        with pytest.raises(OutOfMemoryError):
            store_all_cliques(paper_graph, 3, max_cliques=3)

    def test_stats(self, paper_graph):
        result = store_all_cliques(paper_graph, 3)
        assert result.stats["cliques_stored"] == 7
        assert result.size == result.stats["cliques_taken"]

    def test_deterministic(self, random_graphs):
        for g in random_graphs:
            a = store_all_cliques(g, 3).sorted_cliques()
            b = store_all_cliques(g, 3).sorted_cliques()
            assert a == b

    def test_invalid_k(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            store_all_cliques(paper_graph, 0)


class TestLightweight:
    def test_prune_counters(self):
        # Needs heterogeneous node scores for the bound to fire; a
        # clustered power-law graph provides them (a complete graph,
        # where all scores tie, prunes nothing by design).
        from repro.graph.generators import powerlaw_cluster

        g = powerlaw_cluster(80, 5, 0.7, seed=1)
        pruned = lightweight(g, 4, prune=True)
        unpruned = lightweight(g, 4, prune=False)
        assert pruned.stats["branches_pruned"] > 0
        assert unpruned.stats["branches_pruned"] == 0
        assert pruned.size == unpruned.size

    def test_no_prune_on_uniform_scores(self):
        g = complete_graph(12)
        result = lightweight(g, 4, prune=True)
        assert result.stats["branches_pruned"] == 0
        assert result.size == 3

    def test_heap_accounting(self, paper_graph):
        result = lightweight(paper_graph, 3)
        assert result.stats["heap_pops"] <= result.stats["heap_pushes"]
        assert result.stats["cliques_taken"] == result.size

    def test_findmin_calls_count_eligible_roots_not_heap_entries(self):
        from repro.graph.generators import powerlaw_cluster

        g = powerlaw_cluster(150, 4, 0.4, seed=8)
        result = lightweight(g, 4)
        # Some eligible roots find no clique: calls must exceed pushes.
        assert result.stats["findmin_calls"] > result.stats["heap_pushes"]

    def test_method_tags(self, paper_graph):
        assert lightweight(paper_graph, 3, prune=True).method == "lp"
        assert lightweight(paper_graph, 3, prune=False).method == "l"

    def test_k2(self, paper_graph):
        result = lightweight(paper_graph, 2)
        verify_solution(paper_graph, 2, result.cliques)

    def test_invalid_k(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            lightweight(paper_graph, 1)


class TestExactOpt:
    def test_k2_uses_blossom(self, paper_graph):
        result = exact_optimum(paper_graph, 2)
        verify_solution(paper_graph, 2, result.cliques)
        from repro.matching import matching_size

        assert result.size == matching_size(paper_graph)

    def test_oom_marker(self, paper_graph):
        with pytest.raises(OutOfMemoryError):
            exact_optimum(paper_graph, 3, max_cliques=2)

    def test_stats(self, paper_graph):
        result = exact_optimum(paper_graph, 3)
        assert result.stats["clique_graph_nodes"] == 7

    def test_invalid_k(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            exact_optimum(paper_graph, 1)
