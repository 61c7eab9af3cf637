"""Tests for the CSR adjacency view and its sorted-array helpers."""

import numpy as np
import pytest

from repro import Graph
from repro.graph.csr import concat_rows, in_sorted, sorted_unique
from repro.graph.generators import erdos_renyi_gnp


class TestStructure:
    def test_rows_sorted_and_complete(self, paper_graph):
        csr = paper_graph.csr()
        for u in paper_graph.nodes():
            row = csr.row(u)
            assert list(row) == sorted(paper_graph.neighbors(u))
            assert csr.degree(u) == paper_graph.degree(u)

    def test_degrees_array(self, paper_graph):
        csr = paper_graph.csr()
        assert csr.degrees().tolist() == paper_graph.degrees.tolist()

    def test_counts(self, paper_graph):
        csr = paper_graph.csr()
        assert csr.n == 9 and csr.m == 15

    def test_has_edge(self, paper_graph):
        csr = paper_graph.csr()
        for u, v in paper_graph.edges():
            assert csr.has_edge(u, v) and csr.has_edge(v, u)
        assert not csr.has_edge(0, 1)

    def test_empty_graph(self):
        csr = Graph(0).csr()
        assert csr.n == 0 and csr.m == 0

    def test_isolated_nodes(self):
        csr = Graph(4, [(1, 2)]).csr()
        assert csr.degree(0) == 0 and len(csr.row(0)) == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_bulk_construction_matches_sorted_neighbors(self, seed):
        self._assert_rows_sorted(erdos_renyi_gnp(120, 0.1, seed=seed))

    @pytest.mark.parametrize(
        "graph",
        [
            erdos_renyi_gnp(150, 0.004, seed=4),  # many isolated nodes
            Graph(9, [(8, 0), (3, 7), (7, 0), (3, 8)]),  # isolated 1, 2, 4-6
            Graph(1),
            Graph(0),
        ],
        ids=lambda g: f"n{g.n}-m{g.m}",
    )
    def test_bulk_construction_with_isolated_nodes_and_empty(self, graph):
        self._assert_rows_sorted(graph)

    @staticmethod
    def _assert_rows_sorted(graph):
        csr = graph.csr()
        assert csr.n == graph.n and csr.m == graph.m
        assert csr.indptr.tolist() == [0, *np.cumsum(graph.degrees).tolist()]
        for u in graph.nodes():
            assert csr.row(u).tolist() == sorted(graph.neighbors(u))


class TestSortedArrayHelpers:
    def test_concat_rows(self, paper_graph):
        csr = paper_graph.csr()
        nodes = np.array([2, 0, 5], dtype=np.int64)
        owner_pos, vals = concat_rows(csr.indptr, csr.cols, nodes)
        expected_vals = [v for u in nodes for v in sorted(paper_graph.neighbors(u))]
        expected_pos = [i for i, u in enumerate(nodes) for _ in paper_graph.neighbors(u)]
        assert vals.tolist() == expected_vals
        assert owner_pos.tolist() == expected_pos

    def test_concat_rows_empty(self, paper_graph):
        csr = paper_graph.csr()
        owner_pos, vals = concat_rows(
            csr.indptr, csr.cols, np.empty(0, dtype=np.int64)
        )
        assert len(owner_pos) == 0 and len(vals) == 0

    def test_in_sorted(self):
        hay = np.array([1, 4, 7, 9], dtype=np.int64)
        values = np.array([0, 1, 5, 7, 9, 12], dtype=np.int64)
        assert in_sorted(hay, values).tolist() == [
            False, True, False, True, True, False,
        ]
        assert in_sorted(np.empty(0, dtype=np.int64), values).tolist() == [False] * 6

    @pytest.mark.parametrize("seed", range(3))
    def test_sorted_unique_matches_sorted_set(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 40, size=rng.integers(0, 60))
        assert sorted_unique(values).tolist() == sorted(set(values.tolist()))

