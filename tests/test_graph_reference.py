"""The CSR-first Graph and the vectorised peel against what they replaced.

:class:`EagerGraph` is the former constructor, kept here as the
reference: it fills one Python ``set`` per node in input order, merging
duplicate edges. :func:`bucket_peel` is the former pure-Python bucket
queue over those sets. The CSR-first :class:`~repro.graph.graph.Graph`
builds its sets lazily and must iterate them exactly as the eager ones
(``make_workload`` samples ``list(graph.edges())`` by index, so another
order would re-deal every dynamic workload), and report the same
degrees, ``m``, equality and fingerprint. The peel breaks ties by sorted
rows rather than hash-table order, so its order may differ; it must be
a permutation with the reference's core numbers in which no node has
more than ``core[u]`` neighbours removed after it. Tests that patch the
round constants run the bucket-queue finish after zero, one or a few
vectorised rounds.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph import ordering
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.graph import Graph
from repro.graph.kcore import core_numbers


class EagerGraph:
    """The former ``Graph`` constructor: per-node sets, filled in input order."""

    def __init__(self, n, edges):
        adj = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop on node {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) outside node range [0, {n})")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        self.n, self.m, self.adj = n, m, adj

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def fingerprint(self):
        """The fingerprint format over sorted rows of the sets."""
        indptr = np.cumsum([0] + [len(s) for s in self.adj], dtype=np.int64)
        cols = np.array([v for s in self.adj for v in sorted(s)], dtype=np.int64)
        digest = hashlib.sha256()
        digest.update(np.int64(self.n).tobytes())
        digest.update(np.ascontiguousarray(indptr, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(cols, dtype="<i8").tobytes())
        return "g1-" + digest.hexdigest()


def bucket_peel(ref):
    """The former bucket-queue peel over the sets: ``(order, core)``."""
    n = ref.n
    core = [0] * n
    order = []
    if n == 0:
        return order, core
    deg = [len(s) for s in ref.adj]
    max_deg = max(deg)
    buckets = [[] for _ in range(max_deg + 1)]
    for u in range(n):
        buckets[deg[u]].append(u)
    removed = [False] * n
    current = cursor = 0
    for _ in range(n):
        while cursor <= max_deg and not buckets[cursor]:
            cursor += 1
        while True:
            u = buckets[cursor].pop()
            if not removed[u] and deg[u] == cursor:
                break
            while cursor <= max_deg and not buckets[cursor]:
                cursor += 1
        removed[u] = True
        current = max(current, cursor)
        core[u] = current
        order.append(u)
        for v in ref.adj[u]:
            if not removed[v]:
                deg[v] -= 1
                buckets[deg[v]].append(v)
                if deg[v] < cursor:
                    cursor = deg[v]
    return order, core


def assert_matches_eager(n, edges):
    graph, ref = Graph(n, edges), EagerGraph(n, edges)
    assert graph.n == ref.n and graph.m == ref.m
    assert graph.degrees.tolist() == [len(s) for s in ref.adj]
    assert graph_fingerprint(graph) == ref.fingerprint()
    csr = graph.csr()
    for u in range(n):
        assert csr.row(u).tolist() == sorted(ref.adj[u])
    assert not graph.has_sets
    assert list(graph.edges()) == list(ref.edges())
    assert graph.has_sets
    for u in range(n):
        assert list(graph.neighbors(u)) == list(ref.adj[u])
    assert graph == Graph(n, list(ref.edges())[::-1])


def assert_valid_peel(graph, order, core):
    n = graph.n
    assert sorted(order.tolist()) == list(range(n))
    assert core.tolist() == bucket_peel(EagerGraph(n, graph.edges()))[1]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    for u in range(n):
        later = sum(1 for v in graph.neighbors(u) if rank[v] > rank[u])
        assert later <= core[u]


@st.composite
def edge_lists(draw):
    """Edge lists with repeats in both orientations and isolated nodes."""
    n = draw(st.integers(0, 120))
    if n < 2:
        return n, []
    node = st.integers(0, n - 1)
    edges = draw(
        st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=4 * n)
    )
    if edges:
        repeats = draw(st.lists(st.sampled_from(edges), max_size=len(edges)))
        flips = draw(st.lists(st.booleans(), min_size=len(repeats), max_size=len(repeats)))
        edges += [(v, u) if flip else (u, v) for (u, v), flip in zip(repeats, flips)]
        edges = draw(st.permutations(edges))
    return n, edges


#: (ROUND_MIN, FREE_ROUNDS): the shipped switch, one round then the
#: bucket queue, three rounds then the queue, and rounds to the end.
ROUND_SETTINGS = (
    (ordering.ROUND_MIN, ordering.FREE_ROUNDS),
    (10**9, 0),
    (10**9, 2),
    (1, 0),
)


@settings(max_examples=80, deadline=None)
@given(case=edge_lists())
def test_graph_matches_eager_reference(case):
    assert_matches_eager(*case)


@settings(max_examples=80, deadline=None)
@given(case=edge_lists(), switch=st.sampled_from(ROUND_SETTINGS))
def test_peel_matches_bucket_queue_reference(case, switch):
    graph = Graph(*case)
    with mock.patch.multiple(ordering, ROUND_MIN=switch[0], FREE_ROUNDS=switch[1]):
        order, core = ordering.peel(graph)
    assert_valid_peel(graph, order, core)


def path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def star(n):
    return n, [(0, i) for i in range(1, n)]


def grid(side):
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return side * side, edges


def complete(n):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


FIXED = {
    "path": path(300),
    "star": star(200),
    "grid": grid(30),
    "complete": complete(25),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_graph_matches_eager_reference(name):
    n, edges = FIXED[name]
    assert_matches_eager(n, edges[::-1])


@pytest.mark.parametrize("switch", ROUND_SETTINGS)
@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_graph_peel(name, switch):
    graph = Graph(*FIXED[name])
    with mock.patch.multiple(ordering, ROUND_MIN=switch[0], FREE_ROUNDS=switch[1]):
        order, core = ordering.peel(graph)
    assert_valid_peel(graph, order, core)


def test_orderings_and_cores_use_the_peel():
    graph = Graph(*grid(12))
    order, core = ordering.peel(graph)
    assert ordering.by_degeneracy(graph).tolist() == ordering.rank_from_sequence(order).tolist()
    assert core_numbers(graph).tolist() == core.tolist()
    assert ordering.degeneracy(graph) == int(core.max()) == 2
