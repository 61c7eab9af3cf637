"""Tests for k-core decomposition and clique-preserving pruning."""

import pytest

from repro import Graph, find_disjoint_cliques
from repro.cliques import iter_cliques
from repro.graph.generators import complete_graph, erdos_renyi_gnp, powerlaw_cluster
from repro.graph.kcore import core_numbers, kcore_nodes, prune_for_cliques


class TestCoreNumbers:
    def test_complete_graph(self):
        assert core_numbers(complete_graph(6)).tolist() == [5] * 6

    def test_tree_has_core_one(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert core_numbers(g).tolist() == [1, 1, 1, 1, 1]

    def test_isolated_nodes_core_zero(self):
        g = Graph(3, [(0, 1)])
        assert core_numbers(g)[2] == 0

    def test_empty(self):
        assert core_numbers(Graph(0)).tolist() == []

    def test_against_networkx(self, random_graphs):
        nx = pytest.importorskip("networkx")
        for g in random_graphs:
            nxg = nx.Graph(list(g.edges()))
            nxg.add_nodes_from(range(g.n))
            expected = nx.core_number(nxg)
            got = core_numbers(g)
            assert all(got[u] == expected[u] for u in range(g.n))

    def test_kcore_nodes_monotone(self, random_graphs):
        for g in random_graphs:
            prev = set(range(g.n))
            for c in range(1, 5):
                current = set(kcore_nodes(g, c))
                assert current <= prev
                prev = current


class TestPruneForCliques:
    @pytest.mark.parametrize("k", [3, 4])
    def test_cliques_preserved_exactly(self, random_graphs, k):
        for g in random_graphs:
            pruned, mask = prune_for_cliques(g, k)
            assert {frozenset(c) for c in iter_cliques(g, k)} == {
                frozenset(c) for c in iter_cliques(pruned, k)
            }
            # Every surviving edge touches only core nodes.
            for u, v in pruned.edges():
                assert mask[u] and mask[v]

    @pytest.mark.parametrize("k", [3, 4])
    def test_solution_unchanged_under_pruning(self, k):
        # Node scores are clique-derived, so the GC/LP solution on the
        # pruned graph is identical (ids are preserved).
        for seed in range(4):
            g = erdos_renyi_gnp(30, 0.25, seed=seed)
            pruned, _ = prune_for_cliques(g, k)
            full = find_disjoint_cliques(g, k, method="lp").sorted_cliques()
            reduced = find_disjoint_cliques(pruned, k, method="lp").sorted_cliques()
            assert full == reduced

    def test_pruning_shrinks_sparse_graphs(self):
        # A BA tree-like graph has no 3-core at all: pruning for k=4
        # wipes it (and indeed it has no 4-cliques).
        from repro.graph.generators import barabasi_albert

        g = barabasi_albert(500, 2, seed=2)
        pruned, mask = prune_for_cliques(g, 4)
        assert pruned.m < g.m
        assert list(iter_cliques(g, 4)) == []

    def test_pruning_partial_on_mixed_graph(self):
        # Dense planted core + sparse periphery: the core survives, the
        # periphery is stripped.
        from repro.graph.generators import complete_graph

        core = complete_graph(6)
        edges = list(core.edges()) + [(5, 6), (6, 7), (7, 8)]
        g = Graph(9, edges)
        pruned, mask = prune_for_cliques(g, 4)
        assert pruned.m == core.m
        assert mask.sum() == 6

    def test_prune_keeps_node_universe(self, paper_graph):
        pruned, mask = prune_for_cliques(paper_graph, 3)
        assert pruned.n == paper_graph.n
        assert mask.sum() <= paper_graph.n
