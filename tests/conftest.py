"""Shared fixtures: the paper's running examples and random-graph helpers."""

from __future__ import annotations

import itertools
import sys
from typing import Iterator

import pytest

from repro import Graph
from repro.dynamic.index import CandidateIndex, RefreshReport
from repro.dynamic.local import iter_cliques_within
from repro.graph.generators import erdos_renyi_gnp


@pytest.fixture(scope="session", autouse=True)
def lock_order_watchdog():
    """Cross-check runtime lock edges against the static lock graph.

    Under ``REPRO_TRACK_LOCKS=1`` every lock created through
    ``repro.concurrency`` records observed (held, acquired) label pairs.
    After the suite, any observed edge missing from the analyzer's
    static graph means the ``lockorder`` rule has a resolution gap —
    fail loudly so the model is fixed rather than silently rotting.
    """
    from repro.concurrency import observed_edges, tracking_enabled

    yield
    if not tracking_enabled():
        return
    observed = observed_edges()
    if not observed:
        return
    from tools.repro_lint.concurrency.lockorder import static_edge_set

    missing = observed - static_edge_set()
    assert not missing, (
        "runtime lock-order edges missing from the static graph "
        f"(the lockorder analyzer failed to resolve them): {sorted(missing)}"
    )


@pytest.fixture
def force_dynamic_engine(monkeypatch):
    """``force(engine)`` pins dynamic repair to one engine for the test.

    ``"csr"`` sends every refresh pass (a batch's region, a swap's or a
    deletion's freed nodes) to the CSR patch, ``"sets"`` sends them all
    to the set recursion; the two region thresholds of
    :mod:`repro.dynamic.index` are patched.
    """
    from repro.dynamic import index

    def force(engine: str) -> None:
        limit = {"csr": 0, "sets": sys.maxsize}[engine]
        monkeypatch.setattr(index, "AUTO_DIRTY_THRESHOLD", limit)
        monkeypatch.setattr(index, "PATCH_EDGE_THRESHOLD", limit)

    return force


def paper_example_edges() -> list[tuple[int, int]]:
    """The 15 edges of the paper's running example (Fig. 2, nodes v1..v9).

    Node ``v_i`` is represented as ``i - 1``. The graph has exactly seven
    3-cliques: C1=(v1,v3,v6), C2=(v3,v5,v6), C3=(v5,v6,v8), C4=(v5,v7,v8),
    C5=(v7,v8,v9), C6=(v4,v7,v9), C7=(v2,v4,v9).
    """
    one_based = [
        (1, 3), (1, 6), (3, 6),          # C1
        (3, 5), (5, 6),                  # C2
        (5, 8), (6, 8),                  # C3
        (5, 7), (7, 8),                  # C4
        (7, 9), (8, 9),                  # C5
        (4, 7), (4, 9),                  # C6
        (2, 4), (2, 9),                  # C7
    ]
    return [(u - 1, v - 1) for u, v in one_based]


PAPER_TRIANGLES = [
    frozenset(x - 1 for x in c)
    for c in [
        (1, 3, 6), (3, 5, 6), (5, 6, 8), (5, 7, 8),
        (7, 8, 9), (4, 7, 9), (2, 4, 9),
    ]
]


def paper_fig5_edges() -> list[tuple[int, int]]:
    """Graph G1 of the paper's Fig. 5 (11 nodes, 0-indexed).

    Contains triangles (v1,v2,v3), (v3,v4,v5), (v9,v10,v11) plus the path
    structure v5-v6, v6-v7 used by the swap example; adding (v5, v7)
    turns it into G2 where the swap produces three disjoint triangles.
    """
    one_based = [
        (1, 2), (1, 3), (2, 3),          # triangle (v1,v2,v3)
        (3, 4), (3, 5), (4, 5),          # triangle (v3,v4,v5)
        (5, 6), (6, 7),                  # path toward v7
        (9, 10), (9, 11), (10, 11),      # triangle (v9,v10,v11)
        (7, 8),                          # spare edge keeping v8 attached
    ]
    return [(u - 1, v - 1) for u, v in one_based]


@pytest.fixture
def paper_graph() -> Graph:
    """The 9-node, 15-edge running example of the paper."""
    return Graph(9, paper_example_edges())


@pytest.fixture
def fig5_g1() -> Graph:
    """Fig. 5's G1 (before inserting (v5, v7))."""
    return Graph(11, paper_fig5_edges())


@pytest.fixture
def triangle_pair() -> Graph:
    """Two disjoint triangles."""
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def brute_force_cliques(graph: Graph, k: int) -> set[frozenset[int]]:
    """All k-cliques by testing every k-subset (tiny graphs only)."""
    return {
        frozenset(combo)
        for combo in itertools.combinations(range(graph.n), k)
        if graph.is_clique(combo)
    }


def brute_force_max_disjoint(graph: Graph, k: int) -> int:
    """Optimal |S| by exhaustive search over clique subsets (tiny only)."""
    cliques = sorted(brute_force_cliques(graph, k), key=sorted)
    best = 0

    def extend(idx: int, used: frozenset[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if count + (len(cliques) - idx) <= best:
            return
        for i in range(idx, len(cliques)):
            if used.isdisjoint(cliques[i]):
                extend(i + 1, used | cliques[i], count + 1)

    extend(0, frozenset(), 0)
    return best


def owner_pool_cliques(index: CandidateIndex, owner: int) -> Iterator[frozenset[int]]:
    """Algorithm 5 for one owner ``C``, as the paper states it: every
    k-clique of ``C ∪ N_F(C)`` (``C``'s nodes plus their free
    neighbours) except ``C`` itself, by the set recursion."""
    clique = index.solution[owner]
    pool = set(clique)
    for u in clique:
        for v in index.graph.neighbors(u):
            if v not in index.owner_of:
                pool.add(v)
    for cand in iter_cliques_within(index.graph, pool, index.k):
        if cand != clique:
            yield cand


def reference_owner_candidates(index: CandidateIndex, owner: int) -> RefreshReport:
    """Register one owner's candidates from its Algorithm-5 pool, in the
    set recursion's order; returns the report of what it found (newly
    registered candidates by owner, and any all-free clique)."""
    report = RefreshReport()
    for cand in owner_pool_cliques(index, owner):
        kind, cand_owner = index.classify(cand)
        if kind == "candidate":
            if index.add_candidate(cand, cand_owner):
                report.new_by_owner.setdefault(cand_owner, set()).add(cand)
        elif kind == "all_free":
            report.all_free.add(cand)
    return report


@pytest.fixture
def random_graphs() -> list[Graph]:
    """A spread of small random graphs for cross-validation tests."""
    graphs = []
    for seed, (n, p) in enumerate(
        [(8, 0.4), (12, 0.35), (15, 0.3), (18, 0.35), (20, 0.25), (25, 0.3)]
    ):
        graphs.append(erdos_renyi_gnp(n, p, seed=seed))
    return graphs
