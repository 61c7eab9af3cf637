"""Candidate reuse in absorb and swap against the re-enumerating engine.

When owners enter ``S``, the maintainer registers their candidates by
reclassifying cliques it already holds: the all-free cliques of the
update report when absorbing, the popped owner's candidates when
swapping. The former engine enumerated each new owner's Algorithm-5
patch ``C ∪ N_F(C)`` instead; :class:`ReferenceMaintainer` and
:func:`reference_try_swap` keep it here as the reference. Both must
follow the same trajectory exactly: the solution (owner ids included),
every stat and the candidate index after every batch and every
per-edge update, under each dynamic repair engine.
"""

from __future__ import annotations

import contextlib
import sys
from collections import deque
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Graph
from repro.core.result import CliqueSetResult
from repro.dynamic import DynamicDisjointCliques, iter_batches, make_workload, swap
from repro.dynamic.index import CandidateIndex
from repro.dynamic.swap import select_disjoint, try_swap
from repro.graph.generators import erdos_renyi_gnp
from tests.conftest import reference_owner_candidates

MAINTAINER = sys.modules[DynamicDisjointCliques.__module__]


def reference_try_swap(index: CandidateIndex, queue: deque, stats: dict) -> list[int]:
    """Algorithm 4 with a patch enumeration per replacement owner."""
    created: list[int] = []
    while queue:
        owner = queue.popleft()
        if owner not in index.solution:
            continue
        stats["pops"] += 1
        candidates = index.candidates_of(owner)
        if len(candidates) < 2:
            continue
        replacement = select_disjoint(candidates, index.k)
        if len(replacement) <= 1:
            continue
        removed = index.remove_solution_clique(owner)
        covered: set[int] = set()
        new_ids = []
        for clique in replacement:
            new_ids.append(index.add_solution_clique(clique))
            covered |= clique
        stats["swaps"] += 1
        stats["swap_gain"] += len(replacement) - 1
        doomed = set()
        for node in covered:
            doomed |= index.cands_by_node.get(node, set())
        for cand in doomed:
            index.remove_candidate(cand)
        gained: list[int] = []
        freed = set(removed) - covered
        if freed:
            report = index.refresh_nodes(freed)
            assert not report.all_free
            gained.extend(report.new_by_owner)
        for new_id in new_ids:
            report = reference_owner_candidates(index, new_id)
            assert not report.all_free
            gained.extend(report.new_by_owner)
        for gained_owner in gained:
            if gained_owner in index.solution and gained_owner not in queue:
                queue.append(gained_owner)
        created.extend(new_ids)
    return created


@contextlib.contextmanager
def _reference_swaps() -> Iterator[None]:
    with mock.patch.object(MAINTAINER, "try_swap", reference_try_swap):
        yield


class ReferenceMaintainer(DynamicDisjointCliques):
    """The maintainer with the former re-enumerating absorb and swap."""

    def apply_batch(self, updates):
        with _reference_swaps():
            return super().apply_batch(updates)

    def insert_edge(self, u, v):
        with _reference_swaps():
            return super().insert_edge(u, v)

    def delete_edge(self, u, v):
        with _reference_swaps():
            return super().delete_edge(u, v)

    def _absorb_all_free(self, all_free):
        new_owners: list[int] = []
        pending = set(all_free)
        while pending:
            chosen = select_disjoint(pending, self.k)
            pending.clear()
            added: list[int] = []
            covered: set[int] = set()
            for clique in chosen:
                if any(not self.index.is_free(w) for w in clique):
                    continue
                if not self.graph.is_clique(clique):
                    continue
                added.append(self.index.add_solution_clique(clique))
                self.stats["direct_additions"] += 1
                covered |= clique
            if not added:
                break
            doomed: set = set()
            for node in covered:
                doomed |= self.index.cands_by_node.get(node, set())
            for cand in doomed:
                self.index.remove_candidate(cand)
            for owner in added:
                pending |= reference_owner_candidates(self.index, owner).all_free
            new_owners.extend(added)
        return new_owners


def assert_same_state(dyn: DynamicDisjointCliques, ref: DynamicDisjointCliques) -> None:
    assert dyn.index.solution == ref.index.solution
    assert dyn.stats == ref.stats
    assert dyn.index.owner_of_cand == ref.index.owner_of_cand


@st.composite
def dynamic_cases(draw):
    """A G(n, p) graph of up to 40 nodes, k and a mixed update stream.

    The stream is the paper's mixed workload (re-insertions of edges
    removed up front, interleaved with deletions), plus a few random
    node pairs toggled on top.
    """
    n = draw(st.integers(8, 40))
    graph = erdos_renyi_gnp(n, draw(st.floats(0.2, 0.6)), seed=draw(st.integers(0, 2**16)))
    k = draw(st.integers(2, 5))
    count = draw(st.integers(0, min(30, graph.m // 2)))
    start, updates = make_workload(graph, "mixed", count, seed=draw(st.integers(0, 2**16)))
    node = st.integers(0, n - 1)
    pair = st.tuples(st.sampled_from(["insert", "delete"]), node, node)
    extra = draw(st.lists(pair.filter(lambda t: t[1] != t[2]), max_size=8))
    return start, k, updates + extra


@pytest.mark.parametrize("engine", ["sets", "csr"])
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=dynamic_cases())
def test_batches_match_reference(engine, case, force_dynamic_engine):
    force_dynamic_engine(engine)
    graph, k, updates = case
    for batch_size in (1, 7, max(len(updates), 1)):
        dyn = DynamicDisjointCliques(graph, k)
        ref = ReferenceMaintainer(graph, k)
        assert_same_state(dyn, ref)
        for chunk in [[]] + list(iter_batches(updates, batch_size)):
            dyn.apply_batch(chunk)
            ref.apply_batch(chunk)
            assert_same_state(dyn, ref)
    dyn.check_invariants()


@pytest.mark.parametrize("engine", ["sets", "csr"])
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=dynamic_cases())
def test_per_edge_updates_match_reference(engine, case, force_dynamic_engine):
    force_dynamic_engine(engine)
    graph, k, updates = case
    dyn = DynamicDisjointCliques(graph, k)
    ref = ReferenceMaintainer(graph, k)
    for op, u, v in updates:
        if op == "insert":
            assert dyn.insert_edge(u, v) == ref.insert_edge(u, v)
        else:
            assert dyn.delete_edge(u, v) == ref.delete_edge(u, v)
        assert_same_state(dyn, ref)
    dyn.check_invariants()


def test_non_maximal_replacement_still_raises():
    """A replacement that leaves an all-free clique is a hard error."""
    # Owner {0, 1, 2} with three disjoint candidate triangles, one per
    # owner node; nodes 3..8 hold no triangle of their own.
    edges = [(0, 1), (0, 2), (1, 2)]
    for hub, a, b in ((0, 3, 4), (1, 5, 6), (2, 7, 8)):
        edges += [(hub, a), (hub, b), (a, b)]
    graph = Graph(9, edges)
    initial = CliqueSetResult([frozenset((0, 1, 2))], k=3, method="given")
    dyn = DynamicDisjointCliques(graph, 3, initial=initial)
    (owner,) = dyn.index.solution
    assert len(select_disjoint(dyn.index.candidates_of(owner), 3)) == 3

    def drop_last(cliques, k):
        return select_disjoint(cliques, k)[:-1]

    with mock.patch.object(swap, "select_disjoint", drop_last):
        with pytest.raises(AssertionError, match="uncovered free"):
            try_swap(dyn.index, deque([owner]), {})
