"""Unit tests for the static Graph structure."""

import numpy as np
import pytest

from repro import Graph
from repro.errors import GraphError


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.m == 0
        assert list(g.edges()) == []
        assert g.max_degree() == 0

    def test_isolated_nodes(self):
        g = Graph(5)
        assert g.n == 5 and g.m == 0
        assert all(g.degree(u) == 0 for u in g.nodes())

    def test_basic_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.m == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.neighbors(1) == {0, 2}

    def test_duplicate_edges_merged(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])
        with pytest.raises(GraphError):
            Graph(3, [(-1, 0)])

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_node_count_past_the_key_bound_rejected(self):
        # Directed keys u * n + v must fit int64; this n once tried to
        # allocate 74.5 GiB instead of failing typed.
        with pytest.raises(GraphError, match="node count"):
            Graph(10**10)
        with pytest.raises(GraphError, match="node count"):
            Graph.from_edges([(0, 1)], n=10**10)

    def test_from_edges_infers_n(self):
        g = Graph.from_edges([(0, 5), (2, 3)])
        assert g.n == 6 and g.m == 2

    def test_from_edges_explicit_n(self):
        g = Graph.from_edges([(0, 1)], n=10)
        assert g.n == 10


class TestAccessors:
    def test_degrees_array(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees.tolist() == [3, 1, 1, 1]
        assert g.max_degree() == 3

    def test_edges_each_once_canonical(self, paper_graph):
        edges = list(paper_graph.edges())
        assert len(edges) == paper_graph.m == 15
        assert len(set(edges)) == 15
        assert all(u < v for u, v in edges)

    def test_has_edge_out_of_range_is_false(self):
        g = Graph(3, [(0, 1)])
        assert not g.has_edge(0, 99)
        assert not g.has_edge(-1, 0)

    def test_contains_and_len(self):
        g = Graph(3)
        assert 2 in g and 3 not in g
        assert len(g) == 3

    def test_equality(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        c = Graph(3, [(0, 2)])
        assert a == b and a != c
        assert a != "not a graph" or True  # NotImplemented path exercised

    def test_repr(self):
        assert repr(Graph(2, [(0, 1)])) == "Graph(n=2, m=1)"


class TestIsClique:
    def test_clique_detection(self, paper_graph):
        assert paper_graph.is_clique([0, 2, 5])       # C1 = (v1, v3, v6)
        assert not paper_graph.is_clique([0, 1, 2])

    def test_duplicates_are_not_cliques(self, triangle_pair):
        assert not triangle_pair.is_clique([0, 0, 1])

    def test_single_node_is_clique(self, triangle_pair):
        assert triangle_pair.is_clique([3])


class TestDerived:
    def test_subgraph_relabels(self, paper_graph):
        sub, mapping = paper_graph.subgraph_with_mapping([2, 4, 5])  # v3, v5, v6
        assert sub.n == 3 and sub.m == 3  # triangle C2
        assert mapping == [2, 4, 5]

    def test_subgraph_empty(self, paper_graph):
        assert paper_graph.subgraph_with_mapping([]) == (Graph(0), [])

    def test_complement_of_triangle(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert g.complement().m == 0

    def test_complement_roundtrip(self, random_graphs):
        for g in random_graphs:
            cc = g.complement().complement()
            assert cc == g

    def test_remove_nodes_keeps_ids(self, triangle_pair):
        g = triangle_pair.remove_nodes([0])
        assert g.n == 6
        assert g.degree(0) == 0
        assert g.has_edge(3, 4)
        assert not g.has_edge(0, 1)

    def test_remove_edges(self, triangle_pair):
        g = triangle_pair.remove_edges([(1, 0), (3, 4)])
        assert g.m == 4
        assert not g.has_edge(0, 1) and not g.has_edge(3, 4)

    def test_add_edges(self, triangle_pair):
        g = triangle_pair.add_edges([(0, 3), (0, 3)])
        assert g.m == 7 and g.has_edge(0, 3)

    def test_dynamic_roundtrip(self, paper_graph):
        from repro.graph.dynamic import DynamicGraph

        dyn = DynamicGraph.from_graph(paper_graph)
        assert Graph.from_dynamic(dyn) == paper_graph


class TestCSRCache:
    def test_csr_lazy_and_consistent(self, paper_graph):
        csr = paper_graph.csr()
        assert csr is paper_graph.csr()  # cached
        assert csr.n == paper_graph.n and csr.m == paper_graph.m
        for u in paper_graph.nodes():
            assert set(csr.row(u).tolist()) == paper_graph.neighbors(u)
            assert np.all(np.diff(csr.row(u)) > 0)
