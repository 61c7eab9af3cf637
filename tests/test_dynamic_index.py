"""Tests for the candidate-clique index (Algorithm 5)."""

import pytest

from repro import Graph
from repro.dynamic.index import CandidateIndex
from repro.errors import SolutionError
from repro.graph.dynamic import DynamicGraph


def make_index(graph: Graph, k: int, solution, build: bool = True) -> CandidateIndex:
    """An index over ``solution``; ``build=False`` only registers the
    owners, for a ``solution`` that is not maximal (``build`` rejects
    those)."""
    index = CandidateIndex(DynamicGraph.from_graph(graph), k)
    for clique in solution:
        index.add_solution_clique(frozenset(clique))
    if build:
        index.build()
    return index


class TestPaperFig5:
    def test_candidates_of_g1(self, fig5_g1):
        # S = {C1=(v3,v4,v5), C2=(v9,v10,v11)}; C1's only candidate is
        # (v1,v2,v3); C2 has none (no neighbouring free nodes in a clique).
        index = make_index(fig5_g1, 3, [{2, 3, 4}, {8, 9, 10}])
        owners = {frozenset(c): o for c, o in index.owner_of_cand.items()}
        assert set(owners) == {frozenset({0, 1, 2})}
        assert index.num_candidates == 1
        index.check_consistency()

    def test_inserting_v5_v7_creates_candidate(self, fig5_g1):
        # Fig. 5(b): adding (v5, v7) forms the new candidate (v5, v6, v7).
        index = make_index(fig5_g1, 3, [{2, 3, 4}, {8, 9, 10}])
        index.graph.insert_edge(4, 6)
        report = index.discover_through_edge(4, 6)
        new = {c for cands in report.new_by_owner.values() for c in cands}
        assert frozenset({4, 5, 6}) in new
        index.check_consistency()


class TestClassify:
    def test_all_free(self, triangle_pair):
        index = make_index(triangle_pair, 3, [{0, 1, 2}], build=False)
        assert index.classify(frozenset({3, 4, 5})) == ("all_free", None)

    def test_candidate(self, paper_graph):
        index = make_index(paper_graph, 3, [{0, 2, 5}], build=False)  # C1
        kind, owner = index.classify(frozenset({2, 4, 5}))  # C2 shares v3, v6
        assert kind == "candidate" and owner in index.solution

    def test_invalid_two_owners(self, paper_graph):
        index = make_index(paper_graph, 3, [{0, 2, 5}, {6, 7, 8}])
        # C3 = (v5, v6, v8): v6 belongs to the first owner and v8 to the
        # second -> invalid candidate.
        assert index.classify(frozenset({4, 5, 7}))[0] == "invalid"

    def test_candidate_with_one_free_node(self, paper_graph):
        index = make_index(paper_graph, 3, [{0, 2, 5}, {6, 7, 8}])
        # C4 = (v5, v7, v8): v5 free, v7/v8 in the same owner -> candidate.
        kind, owner = index.classify(frozenset({4, 6, 7}))
        assert kind == "candidate"
        assert index.solution[owner] == frozenset({6, 7, 8})

    def test_invalid_fully_covered(self, triangle_pair):
        index = make_index(triangle_pair, 3, [{0, 1, 2}, {3, 4, 5}])
        assert index.classify(frozenset({0, 1, 2}))[0] == "invalid"


class TestBuildMatchesBruteForce:
    @pytest.mark.parametrize("k", [3, 4])
    def test_consistency_on_random_graphs(self, random_graphs, k):
        from repro import find_disjoint_cliques

        for g in random_graphs:
            solution = find_disjoint_cliques(g, k, method="lp").cliques
            index = make_index(g, k, solution)
            index.check_consistency()  # compares against from-scratch recompute

    def test_non_maximal_solution_rejected(self):
        # A free triangle {3,4,5} adjacent to the owner (all three are
        # neighbours of node 0, so it falls inside the Algorithm 5 pool)
        # proves S non-maximal; build must refuse.
        g = Graph(
            6,
            [(0, 1), (0, 2), (1, 2),
             (3, 4), (3, 5), (4, 5),
             (0, 3), (0, 4), (0, 5)],
        )
        index = CandidateIndex(DynamicGraph.from_graph(g), 3)
        index.add_solution_clique(frozenset({0, 1, 2}))
        with pytest.raises(SolutionError, match="not maximal"):
            index.build()


class TestSolutionBookkeeping:
    def test_overlapping_solution_rejected(self, paper_graph):
        index = CandidateIndex(DynamicGraph.from_graph(paper_graph), 3)
        index.add_solution_clique(frozenset({0, 2, 5}))
        with pytest.raises(SolutionError):
            index.add_solution_clique(frozenset({2, 4, 7}))

    def test_remove_returns_clique_and_frees_nodes(self, triangle_pair):
        index = make_index(triangle_pair, 3, [{0, 1, 2}, {3, 4, 5}])
        owner = index.owner_of[0]
        removed = index.remove_solution_clique(owner)
        assert removed == frozenset({0, 1, 2})
        assert all(index.is_free(u) for u in (0, 1, 2))

    def test_remove_candidates_with_edge(self, fig5_g1):
        index = make_index(fig5_g1, 3, [{2, 3, 4}, {8, 9, 10}])
        doomed = index.remove_candidates_with_edge(0, 1)  # kills (v1,v2,v3)
        assert doomed == {frozenset({0, 1, 2})}
        assert index.num_candidates == 0


class TestRefresh:
    def test_refresh_restores_exactness(self, paper_graph):
        # Start from C1 + C5 (a maximal solution), drop C5; the freed
        # nodes must re-expose every clique touching them.
        index = make_index(paper_graph, 3, [{0, 2, 5}, {6, 7, 8}])
        owner = index.owner_of[6]
        freed = index.remove_solution_clique(owner)
        report = index.refresh_nodes(freed)
        # C5=(v7,v8,v9) itself is now an uncovered triangle.
        assert frozenset({6, 7, 8}) in report.all_free
        # Re-add it; the index must return to a consistent state.
        index.add_solution_clique(frozenset({6, 7, 8}))
        index.refresh_nodes({6, 7, 8})
        index.check_consistency()

    def test_new_candidates_reported_once(self, fig5_g1):
        index = make_index(fig5_g1, 3, [{2, 3, 4}, {8, 9, 10}])
        report = index.refresh_nodes({0, 1})
        # (v1,v2,v3) already existed before the refresh -> not "new".
        assert not report.new_by_owner
        index.check_consistency()
