"""The session's result memo: a repeated solve is answered, not re-run.

A :class:`~repro.core.session.Session` keeps the answer of every
completed deterministic solve under ``(method tag, k, options)``; these
tests pin what enters it (cold, complete, scalar-keyed answers only),
that every hit is a private copy, that it is charged to the session's
byte estimate, and how the server answers a hit.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.session import Session, memo_key
from repro.errors import DeadlineExceededError, OutOfTimeError
from repro.graph.generators import powerlaw_cluster, watts_strogatz
from repro.serve import Client, Server
from repro.serve.pool import SessionPool

METHODS = ("hg", "gc", "l", "lp", "opt", "opt-bb")


def memo(session):
    """``(entries, hits, misses)`` of the session's result memo."""
    info = session.memo_info()
    return info["memo_entries"], info["memo_hits"], info["memo_misses"]


@pytest.fixture
def graph():
    return powerlaw_cluster(200, 5, 0.6, seed=3)


class TestSessionMemo:
    @pytest.mark.parametrize("method", METHODS)
    def test_repeat_is_an_equal_distinct_copy(self, paper_graph, method):
        session = Session(paper_graph)
        first = session.solve(3, method)
        second = session.solve(3, method)
        assert memo(session) == (1, 1, 1)
        assert second.sorted_cliques() == first.sorted_cliques()
        assert second.stats == first.stats and second.method == first.method
        assert second is not first
        assert second.cliques is not first.cliques
        assert second.stats is not first.stats

    def test_mutating_a_result_leaves_the_memo_intact(self, graph):
        session = Session(graph)
        first = session.solve(4, "lp")
        expected, stats = first.sorted_cliques(), dict(first.stats)
        first.cliques.clear()
        first.stats["heap_pops"] = -1
        second = session.solve(4, "lp")
        second.cliques.pop()
        second.stats.clear()
        third = session.solve(4, "lp")
        assert third.sorted_cliques() == expected and third.stats == stats

    def test_repeat_runs_no_engine(self, graph, monkeypatch):
        session = Session(graph)
        session.solve(4, "lp")
        session.solve(4, "gc")

        def fail(*args, **kwargs):
            raise AssertionError("a memo hit ran an engine")

        monkeypatch.setattr(Session, "_open_task", fail)
        monkeypatch.setattr(session.prep, "cliques", fail)
        assert session.solve(4, "lp").size > 0
        assert session.solve(4, "gc").size > 0

    def test_key_keeps_every_option(self, graph):
        session = Session(graph)
        by_degree = session.solve(3, "hg")
        by_id = session.solve(3, "hg", order="id")
        # Defaults are part of the key: naming one is the same request.
        assert session.solve(3, "hg", order="degree").sorted_cliques() == (
            by_degree.sorted_cliques()
        )
        assert memo(session) == (2, 1, 2)
        assert session.solve(3, "hg", order="id").sorted_cliques() == (
            by_id.sorted_cliques()
        )

    def test_completed_task_fills_the_memo(self, graph):
        session = Session(graph)
        task = session.task(4, "lp")
        while not task.done:
            task.step(max_work=7)
        assert memo(session) == (0, 0, 0)  # filled when the result is read
        result = task.result()
        assert memo(session)[0] == 1
        assert session.solve(4, "lp").sorted_cliques() == result.sorted_cliques()
        assert memo(session) == (1, 1, 0)

    def test_warm_started_task_neither_reads_nor_fills(self, graph):
        session = Session(graph)
        seed = Session(graph).solve(4, "hg").sorted_cliques()[::2]
        session.task(4, "lp", warm_start=seed).run()
        assert memo(session) == (0, 0, 0)
        cold = session.solve(4, "lp")
        assert memo(session) == (1, 0, 1)
        warm = session.task(4, "lp", warm_start=seed).run()
        assert memo(session) == (1, 0, 1)
        assert warm.stats != cold.stats  # it ran over the residual graph

    def test_restored_checkpoint_neither_reads_nor_fills(self, graph):
        task = Session(graph).task(4, "lp")
        task.step(max_work=5)
        checkpoint = task.checkpoint()
        session = Session(graph)
        restored = session.restore_task(checkpoint).run()
        assert memo(session) == (0, 0, 0)
        assert session.solve(4, "lp").sorted_cliques() == restored.sorted_cliques()
        assert memo(session) == (1, 0, 1)

    def test_spent_time_budget_neither_reads_nor_fills(self, paper_graph):
        session = Session(paper_graph)
        session.solve(3, "opt-bb")
        assert memo(session) == (1, 0, 1)
        with pytest.raises(OutOfTimeError) as err:
            session.solve(3, "opt-bb", time_budget=1e-9)
        assert err.value.partial is not None
        assert memo(session) == (1, 0, 1)

    def test_budgeted_run_is_never_memoized(self, paper_graph):
        session = Session(paper_graph)
        first = session.solve(3, "opt-bb", time_budget=60.0)
        second = session.solve(3, "opt", time_budget=60.0)
        assert memo(session) == (0, 0, 0)
        assert first.size == second.size

    def test_failed_run_is_not_memoized(self, paper_graph):
        from repro.errors import OutOfMemoryError

        session = Session(paper_graph)
        for _ in range(2):
            with pytest.raises(OutOfMemoryError):
                session.solve(3, "gc", max_cliques=3)
        assert memo(session) == (0, 0, 2)

    @pytest.mark.parametrize("kind", ["array", "callable"])
    def test_array_or_callable_order_is_never_memoized(self, graph, kind):
        session = Session(graph)
        rank = session.prep.rank("degree")
        order = rank if kind == "array" else (lambda g: rank)
        first = session.solve(3, "hg", order=order)
        second = session.solve(3, "hg", order=order)
        assert memo(session) == (0, 0, 0)
        assert second.sorted_cliques() == first.sorted_cliques()
        assert second is not first

    def test_memo_key_admits_only_scalar_options(self, graph):
        session = Session(graph)
        hg = session.method("hg")
        for order in ("degree", "id"):
            assert memo_key(hg, 3, hg.parse_options({"order": order})) is not None
        for order in (np.arange(graph.n), [0, 1], lambda g: None):
            assert memo_key(hg, 3, hg.parse_options({"order": order})) is None
        exact = session.method("opt-bb")
        assert memo_key(exact, 3, exact.parse_options({"max_cliques": 9})) is not None
        assert memo_key(exact, 3, exact.parse_options({"time_budget": 5})) is None

    def test_racing_threads_store_one_entry(self, graph):
        session = Session(graph)
        count = 8
        barrier = threading.Barrier(count)
        results = [None] * count

        def solve(i):
            barrier.wait()
            results[i] = session.solve(4, "lp")

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        entries, hits, misses = memo(session)
        assert entries == 1 and hits + misses == count
        assert all(r.sorted_cliques() == results[0].sorted_cliques() for r in results)
        # Charged once, however many racers stored it.
        single = Session(graph)
        single.solve(4, "lp")
        assert session.estimated_bytes() == single.estimated_bytes()

    def test_two_finished_runs_of_one_key_store_one_entry(self, graph):
        session = Session(graph)
        first, second = session.task(4, "lp"), session.task(4, "lp")
        first.run()
        charged = session.estimated_bytes()
        second.run()
        assert memo(session)[0] == 1
        assert session.estimated_bytes() == charged

    def test_estimated_bytes_grows_with_the_memo(self, graph):
        session = Session(graph)
        session.solve(4, "lp")
        before = session.estimated_bytes()
        session.solve(4, "l")  # the same substrates, one more entry
        assert session.estimated_bytes() > before
        assert session.prep.estimated_bytes() < session.estimated_bytes()
        grown = session.estimated_bytes()
        session.solve(4, "l")  # a hit adds nothing
        assert session.estimated_bytes() == grown

    def test_cache_info_reports_the_memo(self, graph):
        session = Session(graph)
        session.solve(3, "lp")
        session.solve(3, "lp")
        info = session.cache_info()
        assert (info["memo_entries"], info["memo_hits"], info["memo_misses"]) == (1, 1, 1)
        assert info["ks_with_scores"] == (3,)


class TestPoolBudget:
    def test_byte_budget_evicts_a_session_with_its_memo(self):
        tenant = powerlaw_cluster(300, 5, 0.6, seed=4)
        other = powerlaw_cluster(50, 3, 0.5, seed=5)
        probe = Session(tenant)
        probe.prep.score_oriented(3)  # the substrates an lp solve reads
        substrates = probe.estimated_bytes()
        probe.solve(3, "lp")
        memo_bytes = probe.estimated_bytes() - substrates
        assert memo_bytes == probe.estimated_bytes() - probe.prep.estimated_bytes() > 0
        # Room for both sessions' substrates, not for the memo as well.
        budget = substrates + Session(other).estimated_bytes() + memo_bytes // 2

        def admit_other(solve):
            pool = SessionPool(max_bytes=budget)
            session = pool.get(tenant)
            session.prep.score_oriented(3)
            if solve:
                session.solve(3, "lp")
            pool.get(other)
            return pool, session

        pool, _ = admit_other(solve=False)
        assert probe.fingerprint() in pool
        pool, session = admit_other(solve=True)
        assert probe.fingerprint() not in pool
        assert pool.stats["evictions"] == 1
        assert memo(session)[0] == 1
        assert memo(pool.get(tenant)) == (0, 0, 0)  # the memo left with it


@pytest.fixture
def served():
    server = Server(workers=1, queue_limit=64, quantum=0.01)
    try:
        yield server, Client(server)
    finally:
        server.close()


class TestServedMemo:
    def test_repeat_is_answered_without_a_task(self, served, graph, monkeypatch):
        server, client = served
        fingerprint = client.register_graph("g", graph)["fingerprint"]
        first = client.solve("g", 4, "lp")
        session = server.pool.lookup(fingerprint)

        def fail(*args, **kwargs):
            raise AssertionError("a served memo hit opened a task")

        monkeypatch.setattr(session, "task", fail)
        assert client.solve("g", 4, "lp") == first
        assert client.solve("g", 4, "lp", deadline=30.0) == first
        pool = client.stats()["pool"]
        assert (pool["memo_entries"], pool["memo_hits"], pool["memo_misses"]) == (1, 2, 1)

    def test_repeat_with_progress_gets_its_done_event(self, served, graph):
        _, client = served
        client.register_graph("g", graph)
        events = []
        first = client.solve("g", 4, "lp", on_progress=events.append)
        assert events and events[-1]["done"]
        events.clear()
        assert client.solve("g", 4, "lp", on_progress=events.append) == first
        assert events == [
            {"size": first["size"], "bound": first["size"], "work": 0, "done": True}
        ]

    def test_served_repeat_equals_a_direct_solve(self, served, graph):
        _, client = served
        client.register_graph("g", graph)
        for method in ("hg", "gc", "l", "lp"):
            client.solve("g", 3, method)
            repeat = client.solve("g", 3, method)
            direct = Session(graph).solve(3, method)
            assert repeat["cliques"] == [list(c) for c in direct.sorted_cliques()]

    def test_deadline_harvest_neither_reads_nor_fills(self, served):
        server, client = served
        client.register_graph("hard", watts_strogatz(300, 10, 0.1, seed=1))
        for _ in range(2):
            with pytest.raises(DeadlineExceededError) as err:
                client.solve("hard", 3, "opt-bb", deadline=0.1, include_cliques=False)
            assert err.value.partial["partial"] is True
        pool = client.stats()["pool"]
        assert (pool["memo_entries"], pool["memo_hits"], pool["memo_misses"]) == (0, 0, 2)
