"""Cross-validation of the two independent exact solvers."""

import pytest

from repro import Session
from repro.core.exact import exact_optimum
from repro.core.exact_bb import exact_optimum_bb
from repro.core.result import is_maximal, verify_solution
from repro.errors import InvalidParameterError, OutOfMemoryError, OutOfTimeError
from repro.graph.generators import (
    erdos_renyi_gnp,
    planted_clique_packing,
    ring_of_cliques,
)
from tests.conftest import brute_force_max_disjoint


class TestAgreement:
    @pytest.mark.parametrize("k", [3, 4])
    def test_bb_matches_mis_based_opt(self, random_graphs, k):
        for g in random_graphs:
            mis_based = exact_optimum(g, k)
            bb = exact_optimum_bb(g, k)
            verify_solution(g, k, bb.cliques)
            assert bb.size == mis_based.size

    @pytest.mark.parametrize("k", [3, 4])
    def test_bb_matches_brute_force(self, random_graphs, k):
        for g in random_graphs:
            if g.n > 18:
                continue
            assert exact_optimum_bb(g, k).size == brute_force_max_disjoint(g, k)

    def test_paper_graph(self, paper_graph):
        result = exact_optimum_bb(paper_graph, 3)
        assert result.size == 3
        assert is_maximal(paper_graph, 3, result.cliques)

    def test_planted(self):
        g, planted = planted_clique_packing(6, 3, noise_edges=20, seed=4)
        assert exact_optimum_bb(g, 3).size >= len(planted)

    def test_ring_of_cliques(self):
        g = ring_of_cliques(7, 3)
        assert exact_optimum_bb(g, 3).size == 7

    @pytest.mark.parametrize("seed", range(4))
    def test_medium_random(self, seed):
        g = erdos_renyi_gnp(22, 0.3, seed=seed)
        assert exact_optimum_bb(g, 3).size == exact_optimum(g, 3).size


class TestBudgets:
    def test_time_budget(self):
        # Small-world graphs with heavily overlapping triangles are the
        # adversarial case for the capacity bound.
        from repro.graph.generators import watts_strogatz

        g = watts_strogatz(300, 10, 0.1, seed=1)
        with pytest.raises(OutOfTimeError) as err:
            Session(g).solve(3, "opt-bb", time_budget=0.05)
        partial = err.value.partial
        assert partial.method == "opt-bb"
        verify_solution(g, 3, partial.cliques)

    def test_clique_budget(self, paper_graph):
        with pytest.raises(OutOfMemoryError):
            exact_optimum_bb(paper_graph, 3, max_cliques=2)

    def test_invalid_k(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            exact_optimum_bb(paper_graph, 1)

    def test_stats(self, paper_graph):
        result = exact_optimum_bb(paper_graph, 3)
        assert result.stats["cliques_stored"] == 7
        assert result.stats["nodes_expanded"] >= 1
        assert result.method == "opt-bb"
