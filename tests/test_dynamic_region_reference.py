"""One region pass per batch against the former two-call repair.

``apply_batch`` repairs the index with one :meth:`CandidateIndex.refresh_nodes`
pass over the freed nodes and the eligible inserted edges together. The
former repair ran two passes: a refresh of the freed nodes, then a
discovery through the inserted edges, each enumerating its own region
with its own engine choice. :class:`ReferenceIndex` keeps those two
calls here as the reference. Both must follow the same trajectory
exactly: the solution (owner ids included), every stat, the candidate
index and the order in which owners are queued and popped for swaps,
after every batch and every per-edge update, under each dynamic repair
engine.
"""

from __future__ import annotations

import sys
from typing import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cliques import csr_kernels
from repro.dynamic import DynamicDisjointCliques, index as index_module, iter_batches, make_workload
from repro.dynamic.index import CandidateIndex, Clique, RefreshReport, _wide_patch
from repro.dynamic.local import cliques_through_edge, cliques_through_node
from repro.dynamic.swap import try_swap
from repro.graph.csr import concat_rows, sorted_unique
from repro.graph.generators import erdos_renyi_gnp

MAINTAINER = sys.modules[DynamicDisjointCliques.__module__]


class ReferenceIndex(CandidateIndex):
    """The candidate index with the former two-call repair."""

    def refresh_nodes(self, dirty, edges=()):
        report = self._refresh(dirty) if dirty else RefreshReport()
        edges = list(edges)
        if edges:
            ins_report = self._discover_through_edges(edges)
            for owner, cands in ins_report.new_by_owner.items():
                report.new_by_owner.setdefault(owner, set()).update(cands)
            report.all_free |= ins_report.all_free
        return report

    def _refresh(self, dirty) -> RefreshReport:
        report = RefreshReport()
        doomed: set[Clique] = set()
        for node in dirty:
            doomed |= self.cands_by_node.get(node, set())
        for cand in doomed:
            self.remove_candidate(cand)
        for clique in sorted(self._cliques_through_dirty(set(dirty)), key=sorted):
            kind, owner = self.classify(clique)
            if kind == "candidate":
                if self.add_candidate(clique, owner) and clique not in doomed:
                    report.new_by_owner.setdefault(owner, set()).add(clique)
            elif kind == "all_free":
                report.all_free.add(clique)
        return report

    def _cliques_through_dirty(self, dirty: set[int]) -> Iterator[Clique]:
        if len(dirty) >= index_module.AUTO_DIRTY_THRESHOLD:
            csr = self.graph.csr()
            seeds = np.array(sorted(dirty), dtype=np.int64)
            _, around = concat_rows(csr.indptr, csr.cols, seeds)
            pool = sorted_unique(np.concatenate((seeds, around)))
            if _wide_patch(self.graph, pool):
                yield from csr_kernels.iter_cliques_within_csr(
                    self.graph, pool, self.k, require=seeds, labels=self.labels
                )
                return
        seen: set[Clique] = set()
        for node in dirty:
            for clique in cliques_through_node(self.graph, node, self.k):
                if clique not in seen:
                    seen.add(clique)
                    yield clique

    def _discover_through_edges(self, edges) -> RefreshReport:
        report = RefreshReport()
        if self.k >= 3 and len(edges) >= index_module.AUTO_DIRTY_THRESHOLD:
            patch: set[int] = set()
            touch: set[int] = set()
            for u, v in edges:
                common = self.graph.neighbors(u) & self.graph.neighbors(v)
                if len(common) >= self.k - 2:
                    patch.add(u)
                    patch.add(v)
                    patch |= common
                    touch.add(u)
                    touch.add(v)
            patch_arr = np.fromiter(patch, dtype=np.int64)
            if touch and _wide_patch(self.graph, patch_arr):
                for clique in sorted(
                    csr_kernels.iter_cliques_within_csr(
                        self.graph, patch_arr, self.k, require=touch, labels=self.labels
                    ),
                    key=sorted,
                ):
                    self._classify_into(clique, report)
                return report
        seen: set[Clique] = set()
        for u, v in edges:
            seen.update(cliques_through_edge(self.graph, u, v, self.k))
        for clique in sorted(seen, key=sorted):
            self._classify_into(clique, report)
        return report


class ReferenceMaintainer(DynamicDisjointCliques):
    """The maintainer over :class:`ReferenceIndex`."""

    def __init__(self, *args, **kwargs):
        with mock.patch.object(MAINTAINER, "CandidateIndex", ReferenceIndex):
            super().__init__(*args, **kwargs)


class Recorder:
    """Records the swap queues a maintainer hands to ``try_swap`` and the
    owners ``try_swap`` pops, in order."""

    def __init__(self, dyn: DynamicDisjointCliques) -> None:
        self.dyn = dyn
        self.log: list = []
        index = dyn.index
        candidates_of = index.candidates_of

        def popped(owner):
            self.log.append(("pop", owner))
            return candidates_of(owner)

        index.candidates_of = popped

    def run(self, method: str, *args) -> object:
        def recording(index, queue, stats=None):
            self.log.append(("queue", list(queue)))
            return try_swap(index, queue, stats)

        with mock.patch.object(MAINTAINER, "try_swap", recording):
            return getattr(self.dyn, method)(*args)

    def take(self) -> list:
        log, self.log = self.log, []
        return log


def assert_same_state(dyn: Recorder, ref: Recorder) -> None:
    assert dyn.dyn.index.solution == ref.dyn.index.solution
    assert dyn.dyn.stats == ref.dyn.stats
    assert dyn.dyn.index.owner_of_cand == ref.dyn.index.owner_of_cand
    assert dyn.take() == ref.take()


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


SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.mark.parametrize("engine", ["sets", "csr"])
@SETTINGS
@given(case=dynamic_cases())
def test_batches_match_two_call_repair(engine, case, force_dynamic_engine):
    force_dynamic_engine(engine)
    graph, k, updates = case
    for batch_size in (1, 7, max(len(updates), 1)):
        dyn = Recorder(DynamicDisjointCliques(graph, k))
        ref = Recorder(ReferenceMaintainer(graph, k))
        assert_same_state(dyn, ref)
        for chunk in [[]] + list(iter_batches(updates, batch_size)):
            dyn.run("apply_batch", chunk)
            ref.run("apply_batch", chunk)
            assert_same_state(dyn, ref)
        dyn.dyn.check_invariants()


@pytest.mark.parametrize("engine", ["sets", "csr"])
@SETTINGS
@given(case=dynamic_cases())
def test_per_edge_updates_match_two_call_repair(engine, case, force_dynamic_engine):
    force_dynamic_engine(engine)
    graph, k, updates = case
    dyn = Recorder(DynamicDisjointCliques(graph, k))
    ref = Recorder(ReferenceMaintainer(graph, k))
    for op, u, v in updates:
        method = "insert_edge" if op == "insert" else "delete_edge"
        assert dyn.run(method, u, v) == ref.run(method, u, v)
        assert_same_state(dyn, ref)
    dyn.dyn.check_invariants()


def test_one_patch_where_the_two_calls_built_two(force_dynamic_engine):
    """Under the CSR engine a batch builds at most as many patches as the
    two-call repair did, and fewer once a batch both frees nodes and
    inserts an edge with a free endpoint."""
    force_dynamic_engine("csr")
    start, updates = make_workload(erdos_renyi_gnp(30, 0.5, seed=4), "mixed", 20, seed=2)
    real = csr_kernels.local_oriented_csr
    patches: dict[str, list[int]] = {}
    for label, cls in (("change", DynamicDisjointCliques), ("reference", ReferenceMaintainer)):
        dyn = cls(start, 3)
        counts = patches[label] = []
        for chunk in iter_batches(updates, 10):
            calls: list = []

            def counted(*args, calls=calls):
                calls.append(args)
                return real(*args)

            with mock.patch.object(csr_kernels, "local_oriented_csr", counted):
                dyn.apply_batch(chunk)
            counts.append(len(calls))
    assert all(c <= r for c, r in zip(patches["change"], patches["reference"]))
    assert sum(patches["change"]) < sum(patches["reference"])
