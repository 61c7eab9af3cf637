"""Tests for node scores (per-node k-clique counts)."""

import numpy as np
import pytest

from repro import Graph
from repro.cliques import node_scores, clique_profile
from repro.cliques.listing import count_cliques, iter_cliques
from repro.errors import InvalidParameterError
from repro.graph.generators import complete_graph, erdos_renyi_gnp


def brute_scores(graph, k):
    scores = np.zeros(graph.n, dtype=np.int64)
    for clique in iter_cliques(graph, k):
        for u in clique:
            scores[u] += 1
    return scores


def matrix_triangles(graph):
    """Per-node triangle counts from the adjacency matrix: diag(A^3) / 2."""
    a = np.zeros((graph.n, graph.n), dtype=np.int64)
    for u, v in graph.edges():
        a[u, v] = a[v, u] = 1
    return (np.diagonal(a @ a @ a) // 2).tolist()


class TestPaperExample3:
    def test_node_scores(self, paper_graph):
        scores = node_scores(paper_graph, 3)
        # Example 3: s_n(v6) = s_n(v5) = s_n(v8) = 3.
        assert scores[5] == 3 and scores[4] == 3 and scores[7] == 3

    def test_clique_score_c3(self, paper_graph):
        from repro.core.scores import clique_score

        scores = node_scores(paper_graph, 3)
        # C3 = (v5, v6, v8): s_c = 3 + 3 + 3 = 9.
        assert clique_score([4, 5, 7], scores) == 9


class TestConsistency:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_brute_force(self, random_graphs, k):
        for g in random_graphs:
            assert node_scores(g, k).tolist() == brute_scores(g, k).tolist()

    @pytest.mark.parametrize("k", [3, 4])
    def test_score_sum_is_k_times_count(self, random_graphs, k):
        for g in random_graphs:
            scores = node_scores(g, k)
            assert int(scores.sum()) == k * count_cliques(g, k)

    def test_orderings_agree(self, random_graphs):
        for g in random_graphs:
            a = node_scores(g, 3, "id")
            b = node_scores(g, 3, "degeneracy")
            assert a.tolist() == b.tolist()

    def test_k2_is_degree(self, paper_graph):
        assert node_scores(paper_graph, 2).tolist() == paper_graph.degrees.tolist()

    def test_k1_is_ones(self, paper_graph):
        assert node_scores(paper_graph, 1).tolist() == [1] * 9

    def test_complete_graph(self):
        from math import comb

        g = complete_graph(7)
        scores = node_scores(g, 4)
        assert all(s == comb(6, 3) for s in scores)


class TestTriangleScores:
    """At k = 3 a node's score is its triangle count."""

    def test_paper_example(self, paper_graph):
        assert node_scores(paper_graph, 3).tolist() == matrix_triangles(paper_graph)

    def test_complete_graph(self):
        assert node_scores(complete_graph(6), 3).tolist() == [10] * 6  # C(5, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_matches_adjacency_cube(self, seed):
        g = erdos_renyi_gnp(40, 0.25, seed=seed)
        assert node_scores(g, 3).tolist() == matrix_triangles(g)

    def test_triangle_free(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        assert node_scores(g, 3).sum() == 0


class TestErrors:
    def test_invalid_k(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            node_scores(paper_graph, 0)

    def test_profile(self, paper_graph):
        profile = clique_profile(paper_graph, ks=(3, 4))
        assert profile == {3: 7, 4: 0}
