"""The one-pass index build against per-owner Algorithm 5.

:meth:`CandidateIndex.build` finds every candidate in one labelled
frontier pass over the whole graph and registers them in sorted order.
The paper's Algorithm 5 enumerates ``C ∪ N_F(C)`` once per owner ``C``
(:func:`tests.conftest.owner_pool_cliques`); :func:`reference_build`
keeps that enumeration, with the same sorted registration, as the
reference. A maintainer built on each must hold the same state, in the
same container orders, right after construction and after the first
``apply_batch([])`` sweep: the solution with owner ids, the stats, the
index and the order in which the sweep pops owners.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Graph, find_disjoint_cliques
from repro.cliques.listing import iter_cliques
from repro.core.result import CliqueSetResult
from repro.dynamic import DynamicDisjointCliques, make_workload
from repro.dynamic.index import CandidateIndex, Clique
from repro.errors import SolutionError
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi_gnp, powerlaw_cluster
from tests.conftest import owner_pool_cliques


def reference_build(index: CandidateIndex) -> None:
    """Per-owner Algorithm 5, registering the candidates in sorted order."""
    found: dict[Clique, int] = {}
    for owner in index.solution:
        for cand in owner_pool_cliques(index, owner):
            kind, cand_owner = index.classify(cand)
            if kind == "all_free":
                raise SolutionError(f"solution is not maximal: free k-clique {sorted(cand)}")
            if kind == "candidate":
                found[cand] = cand_owner
    for cand in sorted(found, key=sorted):
        index.add_candidate(cand, found[cand])


def random_greedy(graph: Graph, k: int, seed: int) -> CliqueSetResult:
    """A maximal start: the k-cliques in a seeded random order, each
    taken when it misses every clique taken before."""
    cliques = sorted(frozenset(c) for c in iter_cliques(graph, k))
    random.Random(seed).shuffle(cliques)
    used: set[int] = set()
    chosen = []
    for clique in cliques:
        if used.isdisjoint(clique):
            chosen.append(clique)
            used |= clique
    return CliqueSetResult(chosen, k=k, method="random-greedy")


def record_pops(dyn: DynamicDisjointCliques) -> list[int]:
    """The owners ``try_swap`` pops from now on, in order."""
    pops: list[int] = []
    candidates_of = dyn.index.candidates_of

    def popped(owner: int) -> set[Clique]:
        pops.append(owner)
        return candidates_of(owner)

    dyn.index.candidates_of = popped  # type: ignore[method-assign]
    return pops


def state(dyn: DynamicDisjointCliques) -> dict:
    """Everything the maintainer holds, in its containers' own orders."""
    index = dyn.index
    return {
        "solution": list(index.solution.items()),
        "owner_of": list(index.owner_of.items()),
        "labels": index.labels.tolist(),
        "stats": list(dyn.stats.items()),
        "owner_of_cand": list(index.owner_of_cand.items()),
        "cands_by_owner": [(o, list(c)) for o, c in index.cands_by_owner.items()],
        "cands_by_node": [(u, list(c)) for u, c in index.cands_by_node.items()],
        "touched_owners": list(index.touched_owners),
    }


def assert_build_matches_reference(graph: Graph, k: int, start: CliqueSetResult) -> None:
    dyn = DynamicDisjointCliques(graph, k, initial=start)
    ref = DynamicDisjointCliques(graph, k, initial=start)
    ref.index = CandidateIndex(ref.graph, k)
    for clique in start.cliques:
        ref.index.add_solution_clique(clique)
    reference_build(ref.index)
    assert state(dyn) == state(ref)
    dyn_pops, ref_pops = record_pops(dyn), record_pops(ref)
    dyn.apply_batch([])
    ref.apply_batch([])
    assert state(dyn) == state(ref)
    assert dyn_pops == ref_pops
    dyn.check_invariants()


@st.composite
def build_cases(draw):
    """A G(n, p) graph of up to 40 nodes, k and a maximal start from
    ``lp``, ``hg`` or a seeded random greedy."""
    n = draw(st.integers(8, 40))
    graph = erdos_renyi_gnp(n, draw(st.floats(0.25, 0.7)), seed=draw(st.integers(0, 2**16)))
    k = draw(st.integers(2, 5))
    start = draw(st.sampled_from(["lp", "hg", "random"]))
    if start == "random":
        return graph, k, random_greedy(graph, k, draw(st.integers(0, 2**16)))
    return graph, k, find_disjoint_cliques(graph, k, method=start)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=build_cases())
def test_build_matches_per_owner_reference(case):
    assert_build_matches_reference(*case)


def test_update_stream_start_graph_matches_reference():
    """The ``update_stream`` benchmark's seed-1 start graph at k = 4:
    the stream's fixed shape with its nodes renamed by seed 1."""
    shapes = np.random.default_rng(2024)
    base = powerlaw_cluster(10000, 6, 0.9, seed=int(shapes.integers(2**31)))
    start, _ = make_workload(base, "mixed", 10000, seed=int(shapes.integers(2**31)))
    perm = np.random.default_rng(1).permutation(start.n).tolist()
    graph = Graph(start.n, [(perm[u], perm[v]) for u, v in start.edges()])
    assert_build_matches_reference(graph, 4, find_disjoint_cliques(graph, 4))


def test_free_clique_out_of_every_owner_pool_is_rejected(triangle_pair):
    """Two disjoint triangles with ``S`` the first: no owner's pool
    reaches the free second triangle, and the build still sees it."""
    initial = CliqueSetResult([frozenset({0, 1, 2})], k=3, method="given")
    index = CandidateIndex(DynamicGraph.from_graph(triangle_pair), 3)
    index.add_solution_clique(frozenset({0, 1, 2}))
    with pytest.raises(SolutionError, match="not maximal"):
        index.build()
    with pytest.raises(SolutionError, match="not maximal"):
        DynamicDisjointCliques(triangle_pair, 3, initial=initial)
