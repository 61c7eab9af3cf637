"""Tests for dynamic-local clique enumeration (must match static listing)."""

import pytest

from repro.cliques import listing as static_listing
from repro.dynamic import local
from repro.graph.dynamic import DynamicGraph


def canon(it):
    return {frozenset(c) for c in it}


class TestMatchesStaticListing:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_within_full_node_set(self, random_graphs, k):
        for g in random_graphs:
            expected = canon(static_listing.iter_cliques(g, k))
            got = canon(local.iter_cliques_within(g, range(g.n), k))
            assert got == expected

    @pytest.mark.parametrize("k", [3, 4])
    def test_through_node(self, random_graphs, k):
        for g in random_graphs:
            cliques = canon(static_listing.iter_cliques(g, k))
            for u in range(0, g.n, 3):
                expected = {c for c in cliques if u in c}
                got = canon(local.cliques_through_node(g, u, k))
                assert got == expected

    @pytest.mark.parametrize("k", [3, 4])
    def test_through_edge(self, random_graphs, k):
        for g in random_graphs:
            cliques = canon(static_listing.iter_cliques(g, k))
            for u, v in list(g.edges())[:10]:
                expected = {c for c in cliques if {u, v} <= c}
                got = canon(local.cliques_through_edge(g, u, v, k))
                assert got == expected


class TestOnDynamicGraph:
    def test_within_subset(self, paper_graph):
        dyn = DynamicGraph.from_graph(paper_graph)
        got = canon(local.iter_cliques_within(dyn, [2, 4, 5, 7], 3))
        assert got == {frozenset({2, 4, 5}), frozenset({4, 5, 7})}

    def test_reflects_mutation(self, paper_graph):
        dyn = DynamicGraph.from_graph(paper_graph)
        before = canon(local.cliques_through_node(dyn, 5, 3))
        dyn.delete_edge(4, 5)  # remove (v5, v6)
        after = canon(local.cliques_through_node(dyn, 5, 3))
        assert frozenset({2, 4, 5}) in before
        assert frozenset({2, 4, 5}) not in after


class TestEdgeCases:
    def test_k1(self, triangle_pair):
        assert canon(local.iter_cliques_within(triangle_pair, [0, 5], 1)) == {
            frozenset({0}),
            frozenset({5}),
        }

    def test_k0(self, triangle_pair):
        assert list(local.iter_cliques_within(triangle_pair, [0, 1], 0)) == []

    def test_through_missing_edge(self, triangle_pair):
        assert list(local.cliques_through_edge(triangle_pair, 0, 3, 3)) == []

    def test_through_edge_k2(self, triangle_pair):
        got = list(local.cliques_through_edge(triangle_pair, 0, 1, 2))
        assert got == [frozenset({0, 1})]

    def test_through_node_low_degree(self, triangle_pair):
        assert list(local.cliques_through_node(triangle_pair, 0, 4)) == []
