"""Unit tests for the mutable DynamicGraph."""

import pytest

from repro import Graph
from repro.errors import GraphError
from repro.graph.dynamic import DynamicGraph


class TestMutation:
    def test_insert_and_delete(self):
        g = DynamicGraph(4)
        assert g.insert_edge(0, 1)
        assert not g.insert_edge(1, 0)  # duplicate
        assert g.m == 1
        assert g.delete_edge(0, 1)
        assert not g.delete_edge(0, 1)  # already gone
        assert g.m == 0

    def test_self_loop_rejected(self):
        g = DynamicGraph(3)
        with pytest.raises(GraphError):
            g.insert_edge(2, 2)

    def test_out_of_range_rejected(self):
        g = DynamicGraph(3)
        with pytest.raises(GraphError):
            g.insert_edge(0, 5)
        with pytest.raises(GraphError):
            g.delete_edge(0, 5)

    def test_add_node(self):
        g = DynamicGraph(2, [(0, 1)])
        new = g.add_node()
        assert new == 2 and g.n == 3
        g.insert_edge(2, 0)
        assert g.has_edge(0, 2)

    def test_negative_size_rejected(self):
        with pytest.raises(GraphError):
            DynamicGraph(-2)


class TestAccessors:
    def test_mirrors_static_api(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        dyn = DynamicGraph(4, edges)
        static = Graph(4, edges)
        assert dyn.n == static.n and dyn.m == static.m
        for u in range(4):
            assert dyn.neighbors(u) == static.neighbors(u)
            assert dyn.degree(u) == static.degree(u)
        assert sorted(dyn.edges()) == sorted(static.edges())
        assert dyn.is_clique([0, 1, 2]) and not dyn.is_clique([0, 1, 3])

    def test_has_edge_out_of_range(self):
        g = DynamicGraph(2, [(0, 1)])
        assert not g.has_edge(0, 9)

    def test_is_clique_rejects_duplicates(self):
        g = DynamicGraph(3, [(0, 1)])
        assert not g.is_clique([0, 0])

    def test_repr(self):
        assert repr(DynamicGraph(2, [(0, 1)])) == "DynamicGraph(n=2, m=1)"


class TestSnapshot:
    def test_snapshot_roundtrip(self, paper_graph):
        dyn = DynamicGraph.from_graph(paper_graph)
        assert dyn.snapshot() == paper_graph

    def test_from_graph_reads_the_csr_rows(self, paper_graph):
        dyn = DynamicGraph.from_graph(paper_graph)
        assert not paper_graph.has_sets
        assert dyn.m == paper_graph.m
        for u in paper_graph.nodes():
            assert dyn.neighbors(u) == set(paper_graph.csr().row(u).tolist())
        # One int object per node, shared by every row it appears in.
        ids = {id(v) for u in dyn.nodes() for v in dyn.neighbors(u)}
        assert len(ids) == len({v for u in dyn.nodes() for v in dyn.neighbors(u)})

    def test_snapshot_after_updates(self, paper_graph):
        dyn = DynamicGraph.from_graph(paper_graph)
        dyn.delete_edge(0, 2)
        dyn.insert_edge(0, 8)
        snap = dyn.snapshot()
        assert not snap.has_edge(0, 2) and snap.has_edge(0, 8)
        assert snap.m == paper_graph.m

    def test_snapshot_is_independent(self):
        dyn = DynamicGraph(3, [(0, 1)])
        snap = dyn.snapshot()
        dyn.insert_edge(1, 2)
        assert snap.m == 1
