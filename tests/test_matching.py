"""Tests for blossom maximum matching."""

import pytest

from repro import Graph
from repro.graph.generators import complete_graph, erdos_renyi_gnp
from repro.matching import is_matching, matching_size, maximum_matching


class TestBlossom:
    def test_single_edge(self):
        assert maximum_matching(Graph(2, [(0, 1)])) == [(0, 1)]

    def test_path(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert matching_size(g) == 2

    def test_odd_cycle_needs_blossom(self):
        # C5 plus a pendant forces an augmenting path through a blossom.
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5)])
        assert matching_size(g) == 3

    def test_petersen_graph(self):
        nx = pytest.importorskip("networkx")
        petersen = nx.petersen_graph()
        g = Graph(10, list(petersen.edges()))
        assert matching_size(g) == 5  # perfect matching

    def test_against_networkx_random(self):
        nx = pytest.importorskip("networkx")
        for seed in range(8):
            g = erdos_renyi_gnp(16, 0.25, seed=seed)
            nxg = nx.Graph(list(g.edges()))
            nxg.add_nodes_from(range(g.n))
            expected = len(nx.max_weight_matching(nxg, maxcardinality=True))
            matching = maximum_matching(g)
            assert is_matching(g, matching)
            assert len(matching) == expected

    def test_complete_graph(self):
        assert matching_size(complete_graph(9)) == 4

    def test_empty(self):
        assert maximum_matching(Graph(0)) == []
        assert maximum_matching(Graph(5)) == []


class TestIsMatching:
    def test_rejects_shared_node(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert not is_matching(g, [(0, 1), (1, 2)])

    def test_rejects_missing_edge(self):
        g = Graph(3, [(0, 1)])
        assert not is_matching(g, [(0, 2)])

    def test_rejects_self_loop(self):
        g = Graph(3, [(0, 1)])
        assert not is_matching(g, [(1, 1)])

