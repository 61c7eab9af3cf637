"""Tests for the MIS substrate: exact B&B and reductions."""

import itertools

import pytest

from repro import Graph
from repro.errors import OutOfTimeError
from repro.graph.generators import complete_graph, erdos_renyi_gnp
from repro.mis import exact_mis, max_clique, reduce_mis


def is_independent_set(graph: Graph, nodes) -> bool:
    """Distinct nodes, no two adjacent."""
    chosen = set(nodes)
    return len(chosen) == len(nodes) and not any(graph.neighbors(u) & chosen for u in chosen)


def brute_mis_size(graph: Graph) -> int:
    best = 0
    for r in range(graph.n, 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(range(graph.n), r):
            combo_set = set(combo)
            if all(not (graph.neighbors(u) & combo_set) for u in combo):
                best = max(best, r)
                break
    return best


class TestExact:
    def test_against_brute_force(self, random_graphs):
        for g in random_graphs:
            if g.n > 18:
                continue
            solution = exact_mis(g)
            assert is_independent_set(g, solution)
            assert len(solution) == brute_mis_size(g)

    def test_empty_and_edgeless(self):
        assert exact_mis(Graph(0)) == []
        assert exact_mis(Graph(4)) == [0, 1, 2, 3]

    def test_complete_graph(self):
        assert len(exact_mis(complete_graph(7))) == 1

    def test_against_networkx_complement_clique(self, random_graphs):
        nx = pytest.importorskip("networkx")
        for g in random_graphs:
            nxg = nx.Graph(list(g.edges()))
            nxg.add_nodes_from(range(g.n))
            expected, _ = nx.max_weight_clique(nx.complement(nxg), weight=None)
            assert len(exact_mis(g)) == len(expected)

    def test_time_budget(self):
        g = erdos_renyi_gnp(120, 0.5, seed=3)
        with pytest.raises(OutOfTimeError):
            exact_mis(g, time_budget=1e-4)


class TestMaxClique:
    def test_triangle(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert max_clique(g) == [0, 1, 2]

    def test_against_networkx(self, random_graphs):
        nx = pytest.importorskip("networkx")
        for g in random_graphs:
            nxg = nx.Graph(list(g.edges()))
            nxg.add_nodes_from(range(g.n))
            expected, _ = nx.max_weight_clique(nxg, weight=None)
            found = max_clique(g)
            assert len(found) == len(expected)
            assert g.is_clique(found)


class TestReductions:
    def test_isolated_nodes_forced(self):
        g = Graph(3, [(0, 1)])
        kernel = reduce_mis(g)
        assert 2 in kernel.forced

    def test_pendant_rule(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])  # path: MIS = {0, 2}
        kernel = reduce_mis(g)
        assert kernel.kernel.n == 0  # fully reduced
        assert len(kernel.forced) == 2

    def test_reduction_preserves_optimum(self, random_graphs):
        for g in random_graphs:
            if g.n > 18:
                continue
            kernel = reduce_mis(g)
            kernel_opt = exact_mis(kernel.kernel)
            lifted = kernel.lift(kernel_opt)
            assert is_independent_set(g, lifted)
            assert len(lifted) == brute_mis_size(g)

