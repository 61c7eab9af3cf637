"""Tests for swap operations (Algorithm 4)."""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.dynamic.index import CandidateIndex
from repro.dynamic.swap import select_disjoint, try_swap
from repro.graph.dynamic import DynamicGraph
from repro import Graph


class TestSelectDisjoint:
    def test_prefers_low_conflict_cliques(self):
        # The hub clique overlaps both others; local scoring ranks it last.
        cliques = [
            frozenset({0, 1, 2}),
            frozenset({2, 3, 4}),
            frozenset({0, 5, 6}),
        ]
        chosen = select_disjoint(cliques, 3)
        assert len(chosen) == 2
        assert frozenset({2, 3, 4}) in chosen and frozenset({0, 5, 6}) in chosen

    def test_deterministic_on_ties(self):
        cliques = [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
        assert select_disjoint(cliques, 3) == select_disjoint(list(reversed(cliques)), 3)

    def test_empty(self):
        assert select_disjoint([], 3) == []

    def test_maximality(self):
        cliques = [frozenset({0, 1, 2}), frozenset({1, 3, 4}), frozenset({5, 6, 7})]
        chosen = select_disjoint(cliques, 3)
        used = set().union(*chosen)
        for c in cliques:
            assert c in chosen or (c & used)


def reference_select_disjoint(cliques, k):
    """The former selection: copy the pool, count, sort, then greedy."""
    pool = [frozenset(c) for c in cliques]
    counts: dict[int, int] = {}
    for clique in pool:
        for u in clique:
            counts[u] = counts.get(u, 0) + 1
    keyed = sorted(pool, key=lambda c: (sum(counts[u] for u in c), tuple(sorted(c))))
    used: set[int] = set()
    chosen = []
    for clique in keyed:
        if used.isdisjoint(clique):
            chosen.append(clique)
            used |= clique
    return chosen


@st.composite
def pools(draw):
    """``k`` and distinct k-node cliques over few nodes: overlaps and
    equal local scores are the rule, not the exception."""
    k = draw(st.integers(2, 5))
    nodes = st.frozensets(st.integers(0, k + draw(st.integers(0, 6))), min_size=k, max_size=k)
    return k, draw(st.lists(nodes, unique=True, max_size=12))


class TestSelectDisjointReference:
    @settings(max_examples=300, deadline=None)
    @given(case=pools())
    def test_matches_the_sorting_greedy(self, case):
        k, cliques = case
        want = reference_select_disjoint(cliques, k)
        assert select_disjoint(cliques, k) == want
        assert select_disjoint(set(cliques), k) == want

    def test_score_ties_break_by_sorted_nodes(self):
        # Every clique has local score 4; the least sorted node list wins,
        # then the greedy continues in that order.
        cliques = [frozenset({2, 3}), frozenset({0, 3}), frozenset({1, 2}), frozenset({0, 1})]
        assert select_disjoint(cliques, 2) == [frozenset({0, 1}), frozenset({2, 3})]
        assert reference_select_disjoint(cliques, 2) == [frozenset({0, 1}), frozenset({2, 3})]

    def test_least_clique_is_alone_only_when_it_meets_every_other(self):
        cliques = [frozenset({0, 1, 2}), frozenset({0, 3, 4}), frozenset({1, 5, 6})]
        assert select_disjoint(cliques, 3) == reference_select_disjoint(cliques, 3)
        assert select_disjoint(cliques, 3) == [frozenset({0, 3, 4}), frozenset({1, 5, 6})]
        star = [frozenset({0, 1, 2}), frozenset({0, 3, 4}), frozenset({0, 5, 6})]
        assert select_disjoint(star, 3) == [frozenset({0, 1, 2})]


class TestTrySwapFig5:
    def test_paper_swap_example(self, fig5_g1):
        """Fig. 5: after inserting (v5, v7), swapping C=(v3,v4,v5) for its
        two candidates (v1,v2,v3) and (v5,v6,v7) grows S from 2 to 3."""
        graph = DynamicGraph.from_graph(fig5_g1)
        index = CandidateIndex(graph, 3)
        owner_c = index.add_solution_clique(frozenset({2, 3, 4}))   # (v3,v4,v5)
        index.add_solution_clique(frozenset({8, 9, 10}))            # (v9,v10,v11)
        index.build()

        graph.insert_edge(4, 6)  # (v5, v7)
        index.discover_through_edge(4, 6)

        stats: dict[str, float] = {}
        created = try_swap(index, deque([owner_c]), stats)
        assert stats["swaps"] == 1
        assert len(index.solution) == 3
        solution = set(index.solution.values())
        assert frozenset({0, 1, 2}) in solution      # (v1,v2,v3)
        assert frozenset({4, 5, 6}) in solution      # (v5,v6,v7)
        assert frozenset({8, 9, 10}) in solution
        assert len(created) == 2
        index.check_consistency()

    def test_no_swap_with_single_candidate(self, fig5_g1):
        graph = DynamicGraph.from_graph(fig5_g1)
        index = CandidateIndex(graph, 3)
        owner_c = index.add_solution_clique(frozenset({2, 3, 4}))
        index.add_solution_clique(frozenset({8, 9, 10}))
        index.build()  # only candidate: (v1, v2, v3)

        stats: dict[str, float] = {}
        try_swap(index, deque([owner_c]), stats)
        assert stats["swaps"] == 0
        assert len(index.solution) == 2

    def test_popped_owner_no_longer_in_solution(self, fig5_g1):
        graph = DynamicGraph.from_graph(fig5_g1)
        index = CandidateIndex(graph, 3)
        # {v3, v4, v5} alone is not maximal, so no build: the test needs
        # only the owner registered.
        owner_c = index.add_solution_clique(frozenset({2, 3, 4}))
        index.remove_solution_clique(owner_c)
        stats: dict[str, float] = {}
        try_swap(index, deque([owner_c]), stats)
        assert stats["pops"] == 0  # skipped silently


class TestSwapCascade:
    def test_swap_gain_counts(self):
        # A star of one chosen triangle surrounded by two disjoint
        # replacements on each side; one swap nets +1.
        g = Graph(
            9,
            [
                (0, 1), (1, 2), (0, 2),        # chosen triangle
                (0, 3), (3, 4), (0, 4),        # candidate A via node 0
                (2, 5), (5, 6), (2, 6),        # candidate B via node 2
                (7, 8),                        # filler
            ],
        )
        graph = DynamicGraph.from_graph(g)
        index = CandidateIndex(graph, 3)
        owner = index.add_solution_clique(frozenset({0, 1, 2}))
        index.build()
        stats: dict[str, float] = {}
        try_swap(index, deque([owner]), stats)
        assert len(index.solution) == 2
        assert stats["swap_gain"] == 1
        index.check_consistency()
