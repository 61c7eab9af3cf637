"""Tests for the result container and solution validators."""

import pytest

from repro import Graph
from repro.core.result import (
    CliqueSetResult,
    canonicalize,
    checked_clique,
    checked_solution,
    is_maximal,
    is_valid,
    verify_solution,
)
from repro.errors import InvalidParameterError, SolutionError


class TestVerifySolution:
    def test_accepts_valid(self, triangle_pair):
        verify_solution(triangle_pair, 3, [{0, 1, 2}, {3, 4, 5}])

    def test_rejects_wrong_size(self, triangle_pair):
        with pytest.raises(SolutionError, match="distinct nodes"):
            verify_solution(triangle_pair, 3, [{0, 1}])

    def test_rejects_duplicate_nodes_in_clique(self, triangle_pair):
        with pytest.raises(SolutionError):
            verify_solution(triangle_pair, 3, [[0, 0, 1]])

    def test_rejects_missing_edge(self, triangle_pair):
        with pytest.raises(SolutionError, match="missing edge"):
            verify_solution(triangle_pair, 3, [{0, 1, 3}])

    def test_rejects_overlap(self, paper_graph):
        with pytest.raises(SolutionError, match="overlaps"):
            verify_solution(paper_graph, 3, [{0, 2, 5}, {2, 4, 5}])

    def test_works_on_dynamic_graph(self, triangle_pair):
        from repro.graph.dynamic import DynamicGraph

        dyn = DynamicGraph.from_graph(triangle_pair)
        verify_solution(dyn, 3, [{0, 1, 2}])

    def test_is_valid_boolean(self, triangle_pair):
        assert is_valid(triangle_pair, 3, [{0, 1, 2}])
        assert not is_valid(triangle_pair, 3, [{0, 1, 3}])


class TestCheckedClique:
    """The resumable engines' restore check on a checkpoint's cliques."""

    def test_accepts_and_sorts(self, triangle_pair):
        assert checked_clique(triangle_pair, 3, [2, 0, 1], "clique") == (0, 1, 2)
        assert checked_solution(triangle_pair, 3, [(5, 3, 4), [1, 2, 0]]) == [
            (3, 4, 5),
            (0, 1, 2),
        ]

    @pytest.mark.parametrize(
        "raw",
        [[0, 1], [0, 0, 1], [0, 1, 3], [-1, 0, 1],  # short, repeated, no edge 0-3
         [0, 1, 6], ["0", 1, 2], [True, 1, 2], {0, 1, 2}],  # past n, not ints, a set
    )
    def test_rejects(self, triangle_pair, raw):
        with pytest.raises(InvalidParameterError, match="heap clique"):
            checked_clique(triangle_pair, 3, raw, "heap clique")

    def test_solution_rejects_overlap(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            checked_solution(paper_graph, 3, [[0, 2, 5], [2, 4, 5]])


class TestIsMaximal:
    def test_maximal_full(self, triangle_pair):
        assert is_maximal(triangle_pair, 3, [{0, 1, 2}, {3, 4, 5}])

    def test_not_maximal_when_free_clique_exists(self, triangle_pair):
        assert not is_maximal(triangle_pair, 3, [{0, 1, 2}])

    def test_empty_solution_on_triangle_free(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert is_maximal(path, 3, [])

    def test_on_dynamic_graph(self, triangle_pair):
        from repro.graph.dynamic import DynamicGraph

        dyn = DynamicGraph.from_graph(triangle_pair)
        assert not is_maximal(dyn, 3, [{0, 1, 2}])


class TestResultContainer:
    def test_size_and_iteration(self):
        result = CliqueSetResult([frozenset((0, 1, 2))], k=3, method="lp")
        assert result.size == len(result) == 1
        assert list(result) == [frozenset((0, 1, 2))]

    def test_covered_and_coverage(self):
        result = CliqueSetResult(
            [frozenset((0, 1, 2)), frozenset((4, 5, 6))], k=3
        )
        assert result.covered_nodes == {0, 1, 2, 4, 5, 6}
        assert result.coverage(12) == 0.5
        assert CliqueSetResult([], k=3).coverage(0) == 0.0

    def test_sorted_cliques_deterministic(self):
        result = CliqueSetResult(
            [frozenset((5, 3, 4)), frozenset((2, 0, 1))], k=3
        )
        assert result.sorted_cliques() == [(0, 1, 2), (3, 4, 5)]

    def test_canonicalize(self):
        assert canonicalize([[2, 1], (1, 2)]) == [
            frozenset((1, 2)),
            frozenset((1, 2)),
        ]

    def test_repr(self):
        result = CliqueSetResult([], k=4, method="hg")
        assert "k=4" in repr(result) and "hg" in repr(result)
