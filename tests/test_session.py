"""Tests for the Session API: preprocessing reuse, batches, wrappers."""

import pytest

from repro import Graph, Session, SolveRequest, find_disjoint_cliques
from repro.cliques import counting, listing
from repro.errors import InvalidParameterError, OutOfMemoryError, OutOfTimeError
from repro.graph.dynamic import DynamicGraph


@pytest.fixture
def listing_spy(monkeypatch):
    """Count clique-listing enumerations performed by sessions."""
    calls = []
    real = listing.iter_cliques_oriented

    def spy(dag, k):
        calls.append(k)
        return real(dag, k)

    monkeypatch.setattr(listing, "iter_cliques_oriented", spy)
    return calls


@pytest.fixture
def score_spy(monkeypatch):
    """Count node-score counting passes performed by sessions."""
    calls = []
    real = counting.node_scores

    def spy(graph, k, order="degeneracy", dag=None):
        calls.append(k)
        return real(graph, k, order, dag)

    monkeypatch.setattr(counting, "node_scores", spy)
    return calls


class TestPreprocessingCache:
    def test_same_k_lists_cliques_exactly_once(self, paper_graph, listing_spy):
        session = Session(paper_graph)
        first = session.solve(3, "gc")
        # A new key runs gc again (a repeat is a memo hit) on the listing.
        second = session.solve(3, "gc", max_cliques=100)
        assert listing_spy == [3]
        assert first.sorted_cliques() == second.sorted_cliques()

    def test_new_k_triggers_exactly_one_new_listing(self, paper_graph, listing_spy):
        session = Session(paper_graph)
        session.solve(3, "gc")
        session.solve(3, "gc", max_cliques=100)
        session.solve(4, "gc")
        assert listing_spy == [3, 4]

    def test_listing_shared_across_methods(self, paper_graph, listing_spy):
        session = Session(paper_graph)
        session.solve(3, "gc")
        session.solve(3, "opt")
        session.solve(3, "opt-bb")
        assert listing_spy == [3]

    def test_score_pass_shared_and_cached(self, paper_graph, score_spy):
        session = Session(paper_graph)
        session.solve(3, "lp")
        session.solve(3, "l")
        session.task(3, "lp").run()  # the engine again, not the memo
        assert score_spy == [3]
        session.solve(4, "lp")
        assert score_spy == [3, 4]

    def test_scores_derived_from_cached_listing(self, paper_graph, score_spy):
        session = Session(paper_graph)
        session.solve(3, "gc")  # caches the listing, derives scores from it
        session.solve(3, "lp")
        assert score_spy == []  # never needed a counting pass

    def test_derived_scores_match_counting_pass(self, paper_graph):
        with_listing = Session(paper_graph)
        with_listing.prep.cliques(3)
        direct = Session(paper_graph)
        assert list(with_listing.prep.scores(3)) == list(direct.prep.scores(3))

    def test_cache_info_counters(self, paper_graph):
        session = Session(paper_graph)
        session.solve(3, "gc")
        session.solve(3, "gc", max_cliques=100)
        info = session.cache_info()
        assert info["clique_listings"] == 1
        assert info["ks_with_cliques"] == (3,)
        assert info["cache_hits"] > 0

    def test_warm_prewarms_scores(self, paper_graph, score_spy):
        session = Session(paper_graph).warm([3])
        assert score_spy == [3]
        session.solve(3, "lp")
        assert score_spy == [3]

    def test_warm_with_cliques(self, paper_graph, listing_spy):
        session = Session(paper_graph).warm([3], cliques=True)
        session.solve(3, "gc")
        assert listing_spy == [3]

    def test_cached_listing_still_honours_budget(self, paper_graph):
        session = Session(paper_graph)
        session.solve(3, "gc")  # caches all 7 triangles
        with pytest.raises(OutOfMemoryError):
            session.solve(3, "gc", max_cliques=3)

    def test_budget_failure_caches_nothing(self, paper_graph, listing_spy):
        session = Session(paper_graph)
        with pytest.raises(OutOfMemoryError):
            session.solve(3, "gc", max_cliques=3)
        assert session.cache_info()["ks_with_cliques"] == ()
        # The full listing is still possible afterwards.
        assert session.solve(3, "gc").size == 3


class TestSessionResultsMatchOneShot:
    @pytest.mark.parametrize("method", ["hg", "gc", "l", "lp", "opt", "opt-bb"])
    def test_same_solution_as_legacy_api(self, paper_graph, method):
        session = Session(paper_graph)
        fresh = find_disjoint_cliques(paper_graph, 3, method=method)
        via_session = session.solve(3, method)
        assert via_session.sorted_cliques() == fresh.sorted_cliques()
        assert via_session.method == fresh.method

    def test_interleaved_methods_consistent(self, random_graphs):
        for g in random_graphs:
            session = Session(g)
            gc = session.solve(3, "gc")
            lp = session.solve(3, "lp")
            # Theorem 4: GC and LP coincide under the shared clique key.
            assert gc.sorted_cliques() == lp.sorted_cliques()

    def test_core_numbers_accessor(self, paper_graph):
        from repro.graph.kcore import core_numbers

        session = Session(paper_graph)
        assert list(session.prep.core_numbers()) == list(core_numbers(paper_graph))
        assert session.cache_info()["core_numbers"]


class TestSessionValidation:
    def test_rejects_dynamic_graph(self, triangle_pair):
        dyn = DynamicGraph.from_graph(triangle_pair)
        with pytest.raises(InvalidParameterError, match="snapshot"):
            Session(dyn)

    def test_rejects_bad_k(self, triangle_pair):
        session = Session(triangle_pair)
        with pytest.raises(InvalidParameterError, match="k must be"):
            session.solve(1)
        with pytest.raises(InvalidParameterError, match="k must be"):
            session.solve("three")
        with pytest.raises(InvalidParameterError, match="k must be"):
            session.solve(3.0)

    def test_numpy_k_accepted(self, triangle_pair):
        import numpy as np

        assert Session(triangle_pair).solve(np.int64(3)).size == 2

    def test_unknown_default_method_rejected(self, triangle_pair):
        with pytest.raises(InvalidParameterError, match="unknown method"):
            Session(triangle_pair, default_method="magic")

    def test_repr(self, triangle_pair):
        session = Session(triangle_pair)
        session.solve(3)
        assert "cached_ks=(3,)" in repr(session)


class TestSolveMany:
    def test_batch_of_ints(self, paper_graph):
        session = Session(paper_graph)
        results = session.solve_many([3, 4])
        assert [r.k for r in results] == [3, 4]
        assert all(r.method == "lp" for r in results)

    def test_mixed_request_forms(self, paper_graph):
        session = Session(paper_graph)
        results = session.solve_many(
            [
                3,
                (3, "gc"),
                (3, "gc", {"max_cliques": 100}),
                {"k": 3, "method": "hg"},
                SolveRequest(3, "opt"),
            ]
        )
        assert [r.method for r in results] == ["lp", "gc", "gc", "hg", "opt"]

    def test_batch_shares_cache(self, paper_graph, listing_spy):
        session = Session(paper_graph)
        session.solve_many([(3, "gc"), (3, "opt"), (3, "opt-bb")])
        assert listing_spy == [3]

    def test_progress_hook(self, paper_graph):
        session = Session(paper_graph)
        seen = []
        session.solve_many(
            [3, (3, "gc")],
            on_progress=lambda done, total, req, res: seen.append(
                (done, total, req.method, res.size)
            ),
        )
        assert seen == [(1, 2, "lp", 3), (2, 2, "gc", 3)]

    def test_deadline_exceeded(self, paper_graph):
        session = Session(paper_graph)
        with pytest.raises(OutOfTimeError, match="deadline"):
            session.solve_many([3, 4], deadline=0.0)

    def test_generous_deadline_completes(self, paper_graph):
        session = Session(paper_graph)
        assert len(session.solve_many([3], deadline=60.0)) == 1

    def test_bad_request_rejected(self, paper_graph):
        session = Session(paper_graph)
        with pytest.raises(InvalidParameterError, match="solve request"):
            session.solve_many([object()])
        with pytest.raises(InvalidParameterError, match="request tuple"):
            session.solve_many([(3, "lp", {}, "extra")])

    def test_float_k_not_truncated(self, paper_graph):
        # 3.9 must be rejected, not silently solved as k=3.
        session = Session(paper_graph)
        with pytest.raises(InvalidParameterError, match="solve request"):
            session.solve_many([3.9])

    def test_deadline_forwarded_as_time_budget(self, paper_graph):
        from repro.core.registry import ExactOptions, SolverRegistry
        from repro.core.result import CliqueSetResult

        registry = SolverRegistry()
        seen = {}

        @registry.register(
            "probe", summary="records options", exact=True,
            options=ExactOptions,
        )
        def _probe(prep, k, opts):
            seen["time_budget"] = opts.time_budget
            return CliqueSetResult([], k=k, method="probe")

        session = Session(paper_graph, registry=registry, default_method="probe")
        # Budget-capable method: remaining deadline is injected...
        session.solve_many([(3, "probe")], deadline=30.0)
        assert seen["time_budget"] is not None and 0 < seen["time_budget"] <= 30.0
        # ...but an explicit time_budget wins.
        session.solve_many([(3, "probe", {"time_budget": 1.5})], deadline=30.0)
        assert seen["time_budget"] == 1.5
        # No deadline -> nothing injected.
        session.solve_many([(3, "probe")])
        assert seen["time_budget"] is None


class TestCompareSharesSession:
    def test_compare_accepts_session(self, paper_graph, listing_spy):
        from repro.analysis.compare import compare_methods

        session = Session(paper_graph)
        rows = compare_methods(session, 3, methods=("gc", "opt"))
        assert {row.method for row in rows} == {"gc", "opt"}
        assert listing_spy == [3]  # both methods + bounds shared one listing
