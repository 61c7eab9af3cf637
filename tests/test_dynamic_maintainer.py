"""Tests for the dynamic maintainer (Algorithms 6 & 7)."""

import numpy as np
import pytest

from repro import Graph, find_disjoint_cliques
from repro.dynamic import DynamicDisjointCliques
from repro.errors import InvalidParameterError
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import (
    erdos_renyi_gnp,
    planted_clique_packing,
    powerlaw_cluster,
)


class TestConstruction:
    def test_from_static_graph(self, paper_graph):
        dyn = DynamicDisjointCliques(paper_graph, 3)
        dyn.check_invariants()
        assert dyn.size >= 2

    def test_from_dynamic_graph(self, paper_graph):
        source = DynamicGraph.from_graph(paper_graph)
        dyn = DynamicDisjointCliques(source, 3)
        source.delete_edge(0, 2)  # private copy: maintainer unaffected
        dyn.check_invariants()

    def test_invalid_inputs(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            DynamicDisjointCliques(paper_graph, 1)
        with pytest.raises(InvalidParameterError):
            DynamicDisjointCliques("nope", 3)

    def test_initial_solution_checked_on_the_dynamic_copy(self):
        from repro.core.result import CliqueSetResult
        from repro.core.session import Session
        from repro.errors import SolutionError

        graph = powerlaw_cluster(300, 5, 0.6, seed=6)
        initial = Session(graph).solve(3)
        dyn = DynamicDisjointCliques(graph, 3, initial=initial)
        assert dyn.size == initial.size
        # Neither the thaw nor the check builds the static graph's sets.
        assert not graph.has_sets
        u, v = next(iter(dyn.graph.edges()))
        w = next(x for x in range(graph.n) if x != u and not dyn.graph.has_edge(u, x))
        for bad in ([(u, v, w)], [(u, v, graph.n)], [(u, v)]):
            with pytest.raises(SolutionError):
                DynamicDisjointCliques(graph, 3, initial=CliqueSetResult(bad, k=3))

    def test_solution_snapshot(self, triangle_pair):
        dyn = DynamicDisjointCliques(triangle_pair, 3)
        result = dyn.solution()
        assert result.size == 2 and result.method == "dynamic"
        assert dyn.free_nodes() == set()


class TestInsertionCases:
    def test_insert_existing_edge_is_noop(self, triangle_pair):
        dyn = DynamicDisjointCliques(triangle_pair, 3)
        assert not dyn.insert_edge(0, 1)
        assert dyn.stats["insertions"] == 0

    def test_both_free_forms_new_clique(self):
        # One triangle in S; nodes 3,4,5 free with a path 3-4-5.
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
        dyn = DynamicDisjointCliques(g, 3)
        assert dyn.size == 1
        dyn.insert_edge(3, 5)  # closes the free triangle
        assert dyn.size == 2
        dyn.check_invariants()

    def test_one_free_triggers_swap(self, fig5_g1):
        dyn = DynamicDisjointCliques(fig5_g1, 3)
        start = dyn.size
        dyn.insert_edge(4, 6)  # the paper's (v5, v7) insertion
        assert dyn.size == start + 1  # swap gained one clique
        dyn.check_invariants()

    def test_both_covered_is_cheap_noop(self, triangle_pair):
        dyn = DynamicDisjointCliques(triangle_pair, 3)
        dyn.insert_edge(0, 3)  # both endpoints covered
        assert dyn.size == 2
        dyn.check_invariants()

    def test_both_free_insertion_cascades_into_swap(self):
        # One triangle of the K4 {0,1,2,3} is in S; nodes 4, 5 are free
        # and adjacent to 0 and 1. Inserting (4,5) creates the candidates
        # {0,4,5} / {1,4,5}, and a swap can then split the solution into
        # two disjoint triangles covering all six nodes.
        g = Graph(
            6,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (4, 0), (4, 1), (5, 0), (5, 1)],
        )
        dyn = DynamicDisjointCliques(g, 3)
        assert dyn.size == 1
        dyn.insert_edge(4, 5)
        assert dyn.size == 2
        assert dyn.stats["swaps"] >= 1
        dyn.check_invariants()


class TestDeletionCases:
    def test_delete_absent_edge_is_noop(self, triangle_pair):
        dyn = DynamicDisjointCliques(triangle_pair, 3)
        assert not dyn.delete_edge(0, 3)
        assert dyn.stats["deletions"] == 0

    def test_delete_inside_solution_clique(self, triangle_pair):
        dyn = DynamicDisjointCliques(triangle_pair, 3)
        dyn.delete_edge(0, 1)
        assert dyn.size == 1
        dyn.check_invariants()

    def test_delete_candidate_edge_only(self, fig5_g1):
        dyn = DynamicDisjointCliques(fig5_g1, 3)
        start = dyn.size
        dyn.delete_edge(0, 1)  # edge of candidate (v1,v2,v3) only
        assert dyn.size == start
        dyn.check_invariants()

    def test_destroyed_clique_recovered_from_candidates(self, paper_graph):
        # Whatever the initial S, breaking one of its cliques must leave
        # a maximal S (freed nodes re-covered where possible).
        dyn = DynamicDisjointCliques(paper_graph, 3)
        clique = sorted(next(iter(dyn.solution().cliques)))
        dyn.delete_edge(clique[0], clique[1])
        dyn.check_invariants()

    def test_paper_fig5_deletion(self, fig5_g1):
        # Build G2 = G1 + (v5,v7), then delete (v5,v7): the swap example
        # run backwards. Final S must again be maximal with 2 cliques
        # containing (v1,v2,v3) and (v9,v10,v11).
        g2 = fig5_g1.add_edges([(4, 6)])
        dyn = DynamicDisjointCliques(g2, 3)
        assert dyn.size == 3
        dyn.delete_edge(4, 6)
        assert dyn.size == 2
        solution = set(dyn.solution().cliques)
        assert frozenset({8, 9, 10}) in solution
        assert frozenset({0, 1, 2}) in solution
        dyn.check_invariants()


class TestApply:
    def test_apply_stream(self, triangle_pair):
        dyn = DynamicDisjointCliques(triangle_pair, 3)
        dyn.apply([("delete", 0, 1), ("insert", 0, 1)])
        assert dyn.size == 2
        with pytest.raises(InvalidParameterError):
            dyn.apply([("frobnicate", 0, 1)])


class TestRandomStreams:
    @pytest.mark.parametrize("k", [3, 4])
    def test_invariants_under_random_updates(self, k):
        rng = np.random.default_rng(99)
        for trial in range(3):
            g = erdos_renyi_gnp(20, 0.35, seed=trial)
            dyn = DynamicDisjointCliques(g, k)
            for _ in range(40):
                if rng.random() < 0.5 and dyn.graph.m > 4:
                    edges = list(dyn.graph.edges())
                    u, v = edges[int(rng.integers(len(edges)))]
                    dyn.delete_edge(u, v)
                else:
                    u = int(rng.integers(20))
                    v = int(rng.integers(20))
                    if u != v and not dyn.graph.has_edge(u, v):
                        dyn.insert_edge(u, v)
                dyn.check_invariants()

    def test_solution_tracks_rebuild_quality(self):
        rng = np.random.default_rng(5)
        g = powerlaw_cluster(300, 5, 0.5, seed=8)
        dyn = DynamicDisjointCliques(g, 3)
        edges = list(g.edges())
        picks = rng.choice(len(edges), size=60, replace=False)
        for pick in picks:
            dyn.delete_edge(*edges[pick])
        rebuilt = find_disjoint_cliques(dyn.graph.snapshot(), 3, method="lp")
        # The paper's Table VIII drift is a fraction of a percent; allow
        # a small absolute band at this scale.
        assert abs(dyn.size - rebuilt.size) <= max(3, rebuilt.size // 20)

    def test_delete_everything(self, paper_graph):
        dyn = DynamicDisjointCliques(paper_graph, 3)
        for u, v in list(paper_graph.edges()):
            dyn.delete_edge(u, v)
        assert dyn.size == 0 and dyn.index_size == 0
        assert dyn.graph.m == 0
        dyn.check_invariants()

    def test_rebuild_everything(self, paper_graph):
        dyn = DynamicDisjointCliques(Graph(9), 3)
        for u, v in paper_graph.edges():
            dyn.insert_edge(u, v)
        assert dyn.size >= 2
        dyn.check_invariants()


class TestPlantedRecovery:
    def test_insertions_reassemble_planted_packing(self):
        g, planted = planted_clique_packing(4, 3, seed=21)
        # Remove one edge from each planted triangle, then re-add them.
        removed = [tuple(sorted(c))[:2] for c in planted]
        start = g.remove_edges(removed)
        dyn = DynamicDisjointCliques(start, 3)
        assert dyn.size == 0
        for u, v in removed:
            dyn.insert_edge(u, v)
        assert dyn.size == 4
        dyn.check_invariants()
