"""Reference test of the CSR frontier engine, the one static clique engine.

Listings, counts and node scores from :mod:`repro.cliques.csr_kernels`
(through :mod:`repro.cliques.listing` and :mod:`repro.cliques.counting`)
must equal those of the set recursion the dynamic path keeps,
:func:`repro.dynamic.local.iter_cliques_within` over every node — on the
paper's figures, on random G(n, p) graphs and on Hypothesis graphs of
0-30 nodes, the sizes that once took a separate set-based engine. The
solvers fed by the engine must answer as they do from reference scores
and listings, and the removed ``backend`` knob must be rejected
everywhere it was accepted. The engine's bulk membership test must
answer as binary search does, however its bit-table windows fall, and
its scratch must stay bounded on a large graph.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Graph, Session
from repro.cliques import csr_kernels
from repro.cliques.counting import node_scores
from repro.cliques.csr_kernels import resolve_backend
from repro.cliques.listing import count_cliques, iter_cliques
from repro.core.lightweight import lightweight
from repro.core.registry import GCOptions
from repro.core.store_all import store_all_cliques
from repro.dynamic.local import iter_cliques_within
from repro.errors import InvalidParameterError
from repro.graph.csr import in_sorted
from repro.graph.dag import OrientedCSR, OrientedGraph
from repro.graph.generators import (
    complete_graph,
    erdos_renyi_gnp,
    powerlaw_cluster,
)
from repro.graph.ordering import by_degeneracy
from repro.serve.feeds import FlushPolicy

KS = (3, 4, 5)


@pytest.fixture
def graph_corpus(paper_graph, fig5_g1):
    """Paper-figure graphs plus a spread of random ones."""
    graphs = [
        paper_graph,
        fig5_g1,
        complete_graph(8),
        Graph(7, []),
    ]
    for seed, (n, p) in enumerate([(30, 0.3), (45, 0.25), (60, 0.2), (80, 0.15)]):
        graphs.append(erdos_renyi_gnp(n, p, seed=seed))
    graphs.append(powerlaw_cluster(150, 5, 0.6, seed=11))
    return graphs


def canonical(cliques):
    return sorted(tuple(sorted(c)) for c in cliques)


def reference_cliques(graph, k):
    """Every k-clique by the set recursion, canonical."""
    return canonical(iter_cliques_within(graph, range(graph.n), k))


def reference_scores(graph, k):
    scores = np.zeros(graph.n, dtype=np.int64)
    for clique in reference_cliques(graph, k):
        scores[list(clique)] += 1
    return scores


def assert_engine_matches_reference(graph, k):
    expected = reference_cliques(graph, k)
    assert canonical(iter_cliques(graph, k)) == expected
    assert count_cliques(graph, k) == len(expected)
    assert node_scores(graph, k).tolist() == reference_scores(graph, k).tolist()


@st.composite
def small_graphs(draw):
    """Graphs of 0-30 nodes, from empty to complete."""
    n = draw(st.integers(0, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n)
    density = draw(st.floats(0.0, 1.0))
    mask = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, x in zip(pairs, mask) if x < density])


class TestOrientedCSR:
    def test_matches_out_sets(self, paper_graph):
        for order in ("id", "degree", "degeneracy"):
            dag = OrientedGraph.orient(paper_graph, order)
            ocsr = dag.csr()
            for u in paper_graph.nodes():
                row = ocsr.row(u)
                assert list(row) == sorted(dag.out[u])
            assert ocsr.out_degrees().tolist() == [
                len(s) for s in dag.out
            ]

    def test_cached_on_dag(self, paper_graph):
        dag = OrientedGraph.orient(paper_graph)
        assert not dag.has_csr
        assert dag.csr() is dag.csr()
        assert dag.has_csr

    def test_empty_graph(self):
        ocsr = OrientedCSR.from_rank(Graph(0), np.empty(0, dtype=np.int64))
        assert ocsr.n == 0 and len(ocsr.cols) == 0


class TestResolveBackend:
    def test_resolve_backend_returns_csr(self):
        # Kept only for callers outside the package; it validates nothing.
        for args in ((), ("auto", 0), ("sets", 10**9), ("bogus", 100)):
            assert resolve_backend(*args) == "csr"

    def test_unknown_backend_rejected(self):
        # No options class has the field any more.
        with pytest.raises(TypeError, match="backend"):
            GCOptions(backend="csr")
        with pytest.raises(TypeError, match="backend"):
            FlushPolicy(backend="csr")

    @pytest.mark.parametrize("fn", [count_cliques, node_scores, iter_cliques])
    def test_unknown_backend_rejected_at_entrypoints(self, paper_graph, fn):
        with pytest.raises(TypeError, match="backend"):
            fn(paper_graph, 3, backend="csr")

    def test_lightweight_rejects_unknown_backend(self, paper_graph):
        with pytest.raises(TypeError, match="backend"):
            lightweight(paper_graph, 3, backend="csr")
        with pytest.raises(TypeError, match="backend"):
            store_all_cliques(paper_graph, 3, backend="csr")


class TestEnumerationEquivalence:
    @pytest.mark.parametrize("k", (1, 2, *KS, 6))
    def test_listings_counts_scores_match(self, k, graph_corpus):
        for g in graph_corpus:
            assert_engine_matches_reference(g, k)

    @pytest.mark.parametrize("order", ["id", "degree", "degeneracy"])
    def test_order_invariant_across_backends(self, paper_graph, order):
        for k in (2, 3):
            assert canonical(iter_cliques(paper_graph, k, order=order)) == (
                reference_cliques(paper_graph, k)
            )
            assert count_cliques(paper_graph, k, order=order) == len(
                reference_cliques(paper_graph, k)
            )

    def test_small_k_fast_paths(self, paper_graph):
        for k in (1, 2):
            assert canonical(iter_cliques(paper_graph, k)) == reference_cliques(
                paper_graph, k
            )
            assert count_cliques(paper_graph, k) == len(reference_cliques(paper_graph, k))
            assert node_scores(paper_graph, k).tolist() == (
                reference_scores(paper_graph, k).tolist()
            )

    @settings(max_examples=60, deadline=None)
    @given(graph=small_graphs(), k=st.integers(1, 6))
    def test_small_graphs_match_the_set_recursion(self, graph, k):
        assert_engine_matches_reference(graph, k)

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("budget, window_bits", [(16, 1 << 23), (16, 64), (1 << 19, 64)])
    def test_root_batches_and_windows_match_the_set_recursion(
        self, k, budget, window_bits, graph_corpus
    ):
        """Many root batches (k = 3 too) and many bit-table windows per
        membership call give the reference cliques, counts and scores."""
        ocsr = OrientedCSR.from_rank(graph_corpus[-1], by_degeneracy(graph_corpus[-1]))
        with mock.patch.object(csr_kernels, "ROOT_BATCH_BUDGET", budget), mock.patch.object(
            csr_kernels, "MEMBER_WINDOW_BITS", window_bits
        ):
            batches = len(list(csr_kernels._root_batches(ocsr, k)))
            assert batches >= 4 if budget == 16 else batches == 1
            for g in graph_corpus:
                assert_engine_matches_reference(g, k)


class TestBulkMembership:
    """``_member``, the frontier's bulk membership test, against
    :func:`repro.graph.csr.in_sorted`."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_member_matches_binary_search(self, data):
        """Contexts of any width, probes grouped by context in any order
        within it (repeats too), empty contexts and windows, and one
        window or many (the window patched down to a few bits)."""
        n = data.draw(st.integers(1, 40), label="n")
        nctx = data.draw(st.integers(1, 12), label="nctx")
        rows = [data.draw(st.sets(st.integers(0, n - 1))) for _ in range(nctx)]
        probes = [
            data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) for _ in range(nctx)
        ]
        biased = np.array(
            [c * n + w for c, row in enumerate(rows) for w in sorted(row)], dtype=np.int64
        )
        ctx = np.array([c for c, row in enumerate(probes) for _ in row], dtype=np.int64)
        w = np.array([w for row in probes for w in row], dtype=np.int64)
        window_bits = data.draw(st.integers(1, n * (nctx + 1)), label="window_bits")
        with mock.patch.object(csr_kernels, "MEMBER_WINDOW_BITS", window_bits):
            got = csr_kernels._member(biased, ctx, np.arange(len(w)), w, n, nctx)
        assert got.dtype == bool
        assert got.tolist() == in_sorted(biased, ctx * n + w).tolist()
        assert w.tolist() == [w for row in probes for w in row]  # inputs untouched


class TestBoundedScratch:
    def test_k3_score_pass_peak_is_bounded(self):
        """The k = 3 node-score pass on a graph of the ``cold_solve``
        n = 16,000 shape stays under 12 MB traced (about 6 MB here). A
        membership table over contexts × n bits and one whole-graph
        wedge pass peaked at about 42 MB on it."""
        g = powerlaw_cluster(16000, 4, 0.3, seed=460255570)
        ocsr = OrientedCSR.from_rank(g, by_degeneracy(g))
        scores = np.zeros(g.n, dtype=np.int64)
        tracemalloc.start()
        try:
            csr_kernels.node_scores_csr(ocsr, 3, scores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.sum() == 3 * count_cliques(g, 3)
        assert peak < 12 * 2**20


class TestSolverEquivalence:
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("prune", [False, True])
    def test_lightweight_identical(self, k, prune, graph_corpus):
        for g in graph_corpus:
            engine = lightweight(g, k, prune=prune)
            reference = lightweight(g, k, prune=prune, scores=reference_scores(g, k))
            assert engine.sorted_cliques() == reference.sorted_cliques()
            # Same scores, same FindMin walk: even the ablation counters
            # match.
            assert engine.stats == reference.stats

    @pytest.mark.parametrize("k", KS)
    def test_store_all_identical(self, k, graph_corpus):
        for g in graph_corpus:
            engine = store_all_cliques(g, k)
            reference = store_all_cliques(
                g, k, scores=reference_scores(g, k), cliques=reference_cliques(g, k)
            )
            assert engine.sorted_cliques() == reference.sorted_cliques()


class TestSessionBackend:
    def test_solve_rejects_backend_option(self, paper_graph):
        session = Session(paper_graph)
        for method in ("gc", "l", "lp"):
            for backend in ("auto", "sets", "csr"):
                with pytest.raises(InvalidParameterError, match="unknown option 'backend'"):
                    session.solve(3, method, backend=backend)

    def test_unknown_backend_option_rejected(self, paper_graph):
        session = Session(paper_graph)
        with pytest.raises(InvalidParameterError, match="backend"):
            session.solve(3, "lp", backend="bogus")

    def test_warm_backend_caches_are_shared(self, paper_graph):
        warm = Session(paper_graph).warm([3, 4], cliques=True)
        for k in (3, 4):
            assert warm.prep.cliques(k) == reference_cliques(paper_graph, k)
            assert warm.prep.scores(k).tolist() == reference_scores(paper_graph, k).tolist()
        assert warm.solve(3, "lp").sorted_cliques() == Session(paper_graph).solve(
            3, "gc"
        ).sorted_cliques()

    def test_warm_rejects_unknown_backend(self, paper_graph):
        with pytest.raises(TypeError, match="backend"):
            Session(paper_graph).warm([3], backend="csr")

    def test_oriented_csr_cached(self, paper_graph):
        session = Session(paper_graph)
        first = session.prep.oriented_csr()
        assert session.prep.stats["csr_builds"] == 1
        assert session.prep.oriented_csr() is first
        assert session.prep.stats["csr_builds"] == 1
        assert "degeneracy" in session.cache_info()["csr_orientations"]


class TestLocalPatchEnumeration:
    """The dynamic path's patch engine vs the set recursion beside it."""

    def canonical(self, cliques):
        return sorted(sorted(c) for c in cliques)

    @pytest.mark.parametrize("k", KS)
    def test_iter_cliques_within_csr_matches_sets(self, k):
        from repro.cliques.csr_kernels import iter_cliques_within_csr

        rng = np.random.default_rng(5)
        for seed in range(4):
            g = erdos_renyi_gnp(30, 0.3, seed=seed)
            pool = {int(u) for u in rng.choice(30, size=18, replace=False)}
            assert self.canonical(iter_cliques_within_csr(g, pool, k)) == \
                self.canonical(iter_cliques_within(g, pool, k))

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_require_filters_by_membership(self, k):
        from repro.cliques.csr_kernels import iter_cliques_within_csr

        g = erdos_renyi_gnp(26, 0.35, seed=9)
        pool = set(range(26))
        require = {0, 3, 7, 11}
        expected = [
            c for c in iter_cliques_within(g, pool, k) if c & require
        ]
        assert self.canonical(
            iter_cliques_within_csr(g, pool, k, require=require)
        ) == self.canonical(expected)

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_labels_restrict_to_single_group(self, k):
        from repro.cliques.csr_kernels import iter_cliques_within_csr

        g = erdos_renyi_gnp(26, 0.35, seed=4)
        pool = set(range(26))
        labels = {u: u % 3 for u in range(12)}  # nodes >= 12 are wildcards
        def ok(clique):
            groups = {labels[u] for u in clique if u in labels}
            return len(groups) <= 1
        expected = [c for c in iter_cliques_within(g, pool, k) if ok(c)]
        label_arr = np.array([labels.get(u, -1) for u in range(26)], dtype=np.int64)
        assert self.canonical(
            iter_cliques_within_csr(g, pool, k, labels=label_arr)
        ) == self.canonical(expected)

    def test_require_and_labels_compose(self):
        from repro.cliques.csr_kernels import iter_cliques_within_csr

        g = erdos_renyi_gnp(24, 0.4, seed=2)
        pool = set(range(24))
        require = {1, 2, 5}
        labels = {u: u % 2 for u in range(10)}
        def ok(clique):
            groups = {labels[u] for u in clique if u in labels}
            return len(groups) <= 1 and bool(clique & require)
        expected = [c for c in iter_cliques_within(g, pool, 3) if ok(c)]
        label_arr = np.array([labels.get(u, -1) for u in range(24)], dtype=np.int64)
        assert self.canonical(
            iter_cliques_within_csr(g, pool, 3, require=require, labels=label_arr)
        ) == self.canonical(expected)

    def test_local_oriented_csr_roundtrip(self):
        from repro.cliques.csr_kernels import local_oriented_csr

        g = erdos_renyi_gnp(20, 0.3, seed=1)
        pool = [2, 3, 5, 8, 13, 19]
        ocsr, pool_arr = local_oriented_csr(g, pool)
        assert pool_arr.tolist() == pool
        for i, u in enumerate(pool):
            for j in ocsr.row(i).tolist():
                assert j < i and g.has_edge(u, pool[j])

    def test_require_below_rejects_non_identity_orientation(self):
        from repro.cliques.csr_kernels import iter_cliques_csr

        g = erdos_renyi_gnp(40, 0.3, seed=3)
        ocsr = OrientedGraph.orient(g, "degeneracy").csr()
        with pytest.raises(InvalidParameterError, match="identity-ordered"):
            next(iter_cliques_csr(ocsr, 3, require_below=10))
        # Without the restriction the degeneracy orientation is fine.
        assert sum(1 for _ in iter_cliques_csr(ocsr, 3)) == count_cliques(g, 3)
