"""Tests for DAG orientation."""

import numpy as np
import pytest

from repro import Graph, Session
from repro.graph.dag import OrientedGraph
from repro.graph.generators import powerlaw_cluster


class TestOrientation:
    def test_out_neighbours_have_smaller_rank(self, random_graphs):
        for g in random_graphs:
            dag = OrientedGraph.orient(g, "degeneracy")
            for u in g.nodes():
                for v in dag.out[u]:
                    assert dag.rank[v] < dag.rank[u]

    def test_every_edge_oriented_once(self, paper_graph):
        dag = OrientedGraph.orient(paper_graph, "id")
        total = sum(len(s) for s in dag.out)
        assert total == paper_graph.m

    def test_id_order_matches_paper_example(self, paper_graph):
        # Fig. 4(a): under the id ordering, out-neighbours of v6 (node 5)
        # are v1, v3, v5 (nodes 0, 2, 4).
        dag = OrientedGraph.orient(paper_graph, "id")
        assert dag.out[5] == {0, 2, 4}
        # Only v6, v7, v8, v9 have >= 2 out-neighbours (paper Example 2).
        eligible = {u for u in paper_graph.nodes() if len(dag.out[u]) >= 2}
        assert eligible == {5, 6, 7, 8}

    def test_nodes_ascending(self, paper_graph):
        dag = OrientedGraph.orient(paper_graph, "id")
        assert dag.nodes_ascending() == list(range(9))
        rank = np.array([3, 1, 2, 0, 4, 5, 6, 7, 8])
        dag2 = OrientedGraph(paper_graph, rank)
        assert dag2.nodes_ascending()[:4] == [3, 1, 2, 0]

    def test_max_out_degree_empty(self):
        dag = OrientedGraph.orient(Graph(0), "id")
        assert dag.n == 0


class TestLazyOutSets:
    def test_built_on_first_access_only(self, paper_graph):
        dag = OrientedGraph.orient(paper_graph, "id")
        assert not dag.has_out
        assert dag.out is dag.out
        assert dag.has_out

    def test_csr_backend_lp_solve_builds_no_out_sets(self):
        graph = powerlaw_cluster(300, 5, 0.5, seed=2)
        session = Session(graph)
        session.solve(4, "lp")
        assert not session.prep.oriented().has_out
        session.solve(4, "hg", order="degeneracy")
        assert session.prep.oriented().has_out

    @pytest.mark.parametrize("k", [3, 4])
    def test_lp_on_a_small_graph_builds_no_sets(self, paper_graph, k):
        """Small graphs (15 edges here) take the CSR engine too: an
        ``lp`` solve builds neither orientation out-sets nor the graph's
        neighbour sets."""
        session = Session(paper_graph)
        session.solve(k, "lp")
        assert not session.prep.oriented().has_out
        assert not paper_graph.has_sets
