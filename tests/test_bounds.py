"""Tests for certified optimum upper bounds and comparison tooling."""

import pytest

from repro import Graph, find_disjoint_cliques
from repro.analysis import (
    approximation_certificate,
    compare_methods,
    optimum_upper_bounds,
)
from repro.core.exact import exact_optimum
from repro.graph.generators import (
    complete_graph,
    planted_clique_packing,
    ring_of_cliques,
)


class TestSoundness:
    @pytest.mark.parametrize("k", [3, 4])
    def test_bounds_dominate_opt(self, random_graphs, k):
        for g in random_graphs:
            if g.n > 18:
                continue
            opt = exact_optimum(g, k).size
            bounds = optimum_upper_bounds(g, k)
            assert bounds.node_bound >= opt
            assert bounds.count_bound >= opt
            assert bounds.component_bound >= opt
            assert bounds.best >= opt

    def test_planted_instance_tight(self):
        g, planted = planted_clique_packing(5, 3, seed=1)
        bounds = optimum_upper_bounds(g, 3)
        assert bounds.best == 5  # exactly the planted optimum

    def test_component_bound_beats_node_bound(self):
        # Two K3s plus one K2-with-pendant component: component bound
        # rounds down per component.
        g = Graph(
            8,
            [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7)],
        )
        bounds = optimum_upper_bounds(g, 3)
        assert bounds.node_bound == 2
        assert bounds.component_bound == 2

    def test_clique_free_graph(self):
        path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        bounds = optimum_upper_bounds(path, 3)
        assert bounds.best == 0

    def test_complete_graph_bounds(self):
        g = complete_graph(10)
        bounds = optimum_upper_bounds(g, 3)
        assert bounds.best == 3  # 10 // 3

    def test_ring_of_cliques_certificate(self):
        g = ring_of_cliques(6, 3)
        lp = find_disjoint_cliques(g, 3, method="lp")
        cert = approximation_certificate(g, 3, lp.size)
        assert 1.0 <= cert <= 3.0  # far below the worst-case k


class TestPreprocessingBounds:
    def test_memoized_per_k(self):
        from repro import Session

        graph = ring_of_cliques(6, 4)
        session = Session(graph)
        bounds = session.prep.bounds(3)
        assert bounds == optimum_upper_bounds(graph, 3)
        hits = session.prep.stats["cache_hits"]
        assert session.prep.bounds(3) is bounds
        assert session.prep.stats["cache_hits"] == hits + 1
        assert session.prep.bounds(4) == optimum_upper_bounds(graph, 4)

    def test_builds_no_neighbour_sets(self):
        from repro import Session
        from repro.graph.generators import powerlaw_cluster

        graph = powerlaw_cluster(300, 5, 0.6, seed=1)
        Session(graph).prep.bounds(3)
        assert not graph.has_sets


class TestCertificate:
    def test_empty_solution_on_cliquey_graph(self, triangle_pair):
        assert approximation_certificate(triangle_pair, 3, 0) == float("inf")

    def test_empty_solution_on_clique_free_graph(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert approximation_certificate(path, 3, 0) == 0.0

    def test_certificate_at_least_one_for_valid_sizes(self, random_graphs):
        for g in random_graphs:
            lp = find_disjoint_cliques(g, 3, method="lp")
            if lp.size:
                assert approximation_certificate(g, 3, lp.size) >= 1.0


class TestCompareMethods:
    def test_rows_cover_methods(self, paper_graph):
        rows = compare_methods(paper_graph, 3, methods=("hg", "gc", "lp"))
        assert [r.method for r in rows] == ["hg", "gc", "lp"]
        for row in rows:
            assert row.size >= 2
            assert row.seconds >= 0
            assert 0 <= row.coverage <= 1
            assert row.certificate >= 1.0

    def test_gc_and_lp_rows_agree(self, paper_graph):
        rows = {r.method: r for r in compare_methods(paper_graph, 3, ("gc", "lp"))}
        assert rows["gc"].size == rows["lp"].size

    def test_zero_clique_instance(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        rows = compare_methods(path, 3, methods=("lp",))
        assert rows[0].size == 0 and rows[0].certificate == 0.0
