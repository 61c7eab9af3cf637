"""Tests for k-clique listing against brute force and networkx oracles."""

import pytest

from repro import Graph
from repro.cliques import count_cliques, iter_cliques, iter_cliques_in_nodes
from repro.dynamic.local import cliques_through_edge, cliques_through_node
from repro.errors import InvalidParameterError
from repro.graph.generators import complete_graph
from tests.conftest import PAPER_TRIANGLES, brute_force_cliques


def canon(cliques) -> set[frozenset]:
    return {frozenset(c) for c in cliques}


class TestPaperExample:
    def test_seven_triangles(self, paper_graph):
        found = canon(iter_cliques(paper_graph, 3))
        assert found == set(PAPER_TRIANGLES)

    def test_counts_match(self, paper_graph):
        assert count_cliques(paper_graph, 3) == 7
        assert count_cliques(paper_graph, 2) == 15
        assert count_cliques(paper_graph, 1) == 9
        assert count_cliques(paper_graph, 4) == 0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_random_graphs(self, random_graphs, k):
        for g in random_graphs:
            expected = brute_force_cliques(g, k)
            for order in ("id", "degree", "degeneracy"):
                assert canon(iter_cliques(g, k, order)) == expected
                assert count_cliques(g, k, order) == len(expected)

    def test_no_duplicates(self, random_graphs):
        for g in random_graphs:
            listed = list(iter_cliques(g, 3))
            assert len(listed) == len(canon(listed))


class TestSpecialCases:
    def test_complete_graph_counts(self):
        from math import comb

        g = complete_graph(8)
        for k in range(1, 9):
            assert count_cliques(g, k) == comb(8, k)

    def test_k1_yields_nodes(self, triangle_pair):
        assert canon(iter_cliques(triangle_pair, 1)) == {
            frozenset((u,)) for u in range(6)
        }

    def test_k2_yields_edges(self, paper_graph):
        assert canon(iter_cliques(paper_graph, 2)) == {
            frozenset(e) for e in paper_graph.edges()
        }

    def test_k_larger_than_n(self, triangle_pair):
        assert list(iter_cliques(triangle_pair, 7)) == []

    def test_invalid_k(self, triangle_pair):
        with pytest.raises(InvalidParameterError):
            iter_cliques(triangle_pair, 0)
        with pytest.raises(InvalidParameterError):
            count_cliques(triangle_pair, -1)

    def test_empty_graph(self):
        assert list(iter_cliques(Graph(0), 3)) == []
        assert count_cliques(Graph(0), 3) == 0


class TestLocalEnumeration:
    def test_through_node(self, paper_graph):
        through_v6 = canon(cliques_through_node(paper_graph, 5, 3))
        expected = {c for c in PAPER_TRIANGLES if 5 in c}
        assert through_v6 == expected
        assert len(expected) == 3  # s_n(v6) = 3 per Example 3

    def test_through_edge(self, paper_graph):
        through = canon(cliques_through_edge(paper_graph, 4, 5, 3))  # (v5, v6)
        assert through == {c for c in PAPER_TRIANGLES if {4, 5} <= c}

    def test_through_missing_edge(self, paper_graph):
        assert list(cliques_through_edge(paper_graph, 0, 1, 3)) == []

    def test_through_edge_k2(self, paper_graph):
        assert canon(cliques_through_edge(paper_graph, 0, 2, 2)) == {
            frozenset((0, 2))
        }

    def test_in_nodes(self, paper_graph):
        inside = canon(iter_cliques_in_nodes(paper_graph, [4, 5, 7, 2], 3))
        assert inside == {frozenset((2, 4, 5)), frozenset((4, 5, 7))}

    def test_against_networkx(self, random_graphs):
        nx = pytest.importorskip("networkx")
        for g in random_graphs:
            nxg = nx.Graph(list(g.edges()))
            nxg.add_nodes_from(range(g.n))
            for k in (3, 4):
                expected = {
                    frozenset(c)
                    for clique in nx.find_cliques(nxg)
                    for c in __import__("itertools").combinations(clique, k)
                }
                assert canon(iter_cliques(g, k)) == expected
