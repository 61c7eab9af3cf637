"""The CSR mirror of ``DynamicGraph`` against a fresh CSR build.

``DynamicGraph.csr()`` folds recorded edge updates into its mirror
lazily; whatever interleaving of inserts, deletes, re-inserts within one
fold window, no-op updates, node additions and reads happened, it must
equal ``snapshot().csr()``. Patch extraction (``local_oriented_csr``)
reads that mirror; :func:`reference_local_oriented_csr` is the former
extraction, which drained the per-node neighbour sets, kept here as its
reference.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cliques.csr_kernels import local_oriented_csr
from repro.graph.dag import OrientedCSR
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi_gnp


def reference_local_oriented_csr(graph, pool):
    """Relabelled oriented patch built from the neighbour sets."""
    pool_arr = np.asarray(pool, dtype=np.int64)
    nloc = len(pool_arr)
    pool_list = pool_arr.tolist()
    degs = [len(graph.neighbors(u)) for u in pool_list]
    flat = np.fromiter(
        (v for u in pool_list for v in graph.neighbors(u)), dtype=np.int64, count=sum(degs)
    )
    local_map = np.full(graph.n, -1, dtype=np.int64)
    local_map[pool_arr] = np.arange(nloc, dtype=np.int64)
    loc = local_map[flat]
    rows_full = np.repeat(np.arange(nloc, dtype=np.int64), degs)
    keep = (loc >= 0) & (loc < rows_full)
    rows_arr, cols_arr = rows_full[keep], loc[keep]
    if len(cols_arr):
        cols_arr = cols_arr[np.lexsort((cols_arr, rows_arr))]
    indptr = np.zeros(nloc + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows_arr, minlength=nloc), out=indptr[1:])
    return OrientedCSR(indptr, cols_arr, np.arange(nloc, dtype=np.int64)), pool_arr


def assert_mirror_exact(dyn: DynamicGraph) -> None:
    got, want = dyn.csr(), dyn.snapshot().csr()
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.cols, want.cols)
    assert got.indptr.dtype == want.indptr.dtype == np.int64
    assert got.cols.dtype == want.cols.dtype == np.int64


def assert_patch_matches_reference(dyn: DynamicGraph, pool: list[int]) -> None:
    got, got_pool = local_oriented_csr(dyn, pool)
    want, want_pool = reference_local_oriented_csr(dyn, pool)
    np.testing.assert_array_equal(got_pool, want_pool)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.cols, want.cols)
    np.testing.assert_array_equal(got.rank, want.rank)


@st.composite
def mirror_scripts(draw):
    """A start graph, how it is built, and a script of steps on it."""
    n = draw(st.integers(1, 24))
    start = erdos_renyi_gnp(n, draw(st.floats(0.0, 0.6)), seed=draw(st.integers(0, 2**16)))
    seeded = draw(st.booleans())
    steps = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(
            ["insert", "delete", "reinsert", "toggle", "noop", "add_node", "read", "patch"]
        ))
        steps.append((kind, draw(st.integers(0, 2**16)), draw(st.integers(0, 2**16))))
    return start, seeded, steps


@settings(max_examples=150, deadline=None)
@given(script=mirror_scripts())
def test_mirror_equals_snapshot_csr(script):
    start, seeded, steps = script
    # Seeded from the Graph's CSR, or built edge by edge (the first read
    # then drains the sets).
    dyn = DynamicGraph.from_graph(start) if seeded else DynamicGraph(start.n, start.edges())
    for kind, a, b in steps:
        n = dyn.n
        u, v = a % max(n, 1), b % max(n, 1)
        if kind == "add_node":
            dyn.add_node()
            continue
        if kind == "read":
            assert_mirror_exact(dyn)
            continue
        if kind == "patch":
            rng = np.random.default_rng(a)
            size = int(rng.integers(0, n + 1))
            assert_patch_matches_reference(dyn, rng.permutation(n)[:size].tolist())
            continue
        if u == v:
            continue
        if kind == "insert":
            dyn.insert_edge(u, v)
        elif kind == "delete":
            dyn.delete_edge(u, v)
        elif kind == "reinsert":
            # Gone and back within one fold window: a net no-op.
            if dyn.has_edge(u, v):
                assert dyn.delete_edge(v, u) and dyn.insert_edge(u, v)
            else:
                assert dyn.insert_edge(v, u) and dyn.delete_edge(u, v)
        elif kind == "toggle":
            # Flip, flip back, flip again: a net change.
            for _ in range(3):
                if dyn.has_edge(u, v):
                    dyn.delete_edge(u, v)
                else:
                    dyn.insert_edge(v, u)
        else:
            # Updates that change nothing.
            if dyn.has_edge(u, v):
                assert not dyn.insert_edge(v, u)
            else:
                assert not dyn.delete_edge(u, v)
    assert_mirror_exact(dyn)
    assert_patch_matches_reference(dyn, list(range(dyn.n))[::-1])


def test_read_is_cached_until_the_next_update():
    dyn = DynamicGraph.from_graph(erdos_renyi_gnp(12, 0.4, seed=1))
    first = dyn.csr()
    assert dyn.csr() is first
    assert not dyn.insert_edge(*next(dyn.edges()))  # no-op: still cached
    assert dyn.csr() is first
    u, v = next(dyn.edges())
    dyn.delete_edge(u, v)
    dyn.insert_edge(u, v)
    assert dyn.csr() is not first
    assert_mirror_exact(dyn)


def test_small_patch_of_a_large_graph():
    """A patch far smaller than the graph relabels by binary search."""
    dyn = DynamicGraph.from_graph(erdos_renyi_gnp(5000, 0.002, seed=3))
    rng = np.random.default_rng(4)
    for u, v in rng.integers(0, 5000, size=(300, 2)).tolist():
        if u != v:
            (dyn.delete_edge if dyn.has_edge(u, v) else dyn.insert_edge)(u, v)
    assert_mirror_exact(dyn)
    pool = rng.permutation(5000)[:40].tolist()
    assert_patch_matches_reference(dyn, pool)
