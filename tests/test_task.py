"""Anytime SolveTask protocol: stepping, validity, equivalence, events.

The core acceptance contract: interrupting a resumable task at *any*
step boundary yields a valid disjoint k-clique set (Section V
invariants), and driving the same task to completion produces solutions
and stats identical to the blocking ``Session.solve`` path — across
methods and seeds.
"""

import json

import pytest

from repro import Session, SolveTask
from repro.core.result import is_maximal, verify_solution
from repro.errors import InvalidParameterError
from repro.graph.generators import powerlaw_cluster, watts_strogatz

RESUMABLE = ("hg", "l", "lp", "opt-bb")


def small_graph(seed: int):
    return powerlaw_cluster(150, 5, 0.6, seed=seed)


def bb_graph(seed: int):
    # Branch-and-bound territory: small-world graphs stay tractable at
    # this size, while clique-rich powerlaw graphs explode.
    return watts_strogatz(36, 6, 0.2, seed=seed)


class TestEquivalence:
    @pytest.mark.parametrize("method", RESUMABLE)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_driven_task_matches_blocking_solve(self, method, seed):
        g = bb_graph(seed) if method == "opt-bb" else small_graph(seed)
        session = Session(g)
        k = 3 if method == "opt-bb" else 4
        blocking = session.solve(k, method)
        result = session.task(k, method).run()
        assert result.sorted_cliques() == blocking.sorted_cliques()
        assert result.stats == blocking.stats
        assert result.method == blocking.method

    def test_lp_task_matches_blocking(self):
        g = powerlaw_cluster(300, 6, 0.7, seed=5)
        session = Session(g)
        blocking = session.solve(4, "lp")
        result = session.task(4, "lp").run()
        assert result.sorted_cliques() == blocking.sorted_cliques()
        assert result.stats == blocking.stats

    def test_chunked_stepping_matches_single_run(self):
        g = small_graph(7)
        session = Session(g)
        task = session.task(4, "lp")
        while not task.done:
            task.step(max_work=3)
        assert (
            task.result().sorted_cliques()
            == session.solve(4, "lp").sorted_cliques()
        )


class TestStepBoundaryValidity:
    @pytest.mark.parametrize("method", RESUMABLE)
    def test_best_is_always_valid_and_bound_dominates(self, method):
        g = watts_strogatz(40, 6, 0.2, seed=1) if method == "opt-bb" \
            else small_graph(3)
        session = Session(g)
        k = 3 if method == "opt-bb" else 4
        task = session.task(k, method)
        previous = 0
        while not task.done:
            snapshot = task.step(max_work=5)
            best = task.best()
            verify_solution(g, k, best.cliques)
            assert snapshot.size == best.size
            assert snapshot.bound >= snapshot.size
            assert snapshot.size >= previous  # the anytime |S| never drops
            previous = snapshot.size
        assert is_maximal(g, k, task.best().cliques)

    def test_greedy_final_bound_equals_size(self):
        session = Session(small_graph(2))
        task = session.task(4, "lp")
        task.run()
        assert task.bound() == task.best().size

    def test_exact_bound_certifies_optimality(self):
        g = watts_strogatz(40, 6, 0.2, seed=3)
        session = Session(g)
        task = session.task(3, "opt-bb")
        bounds = []
        while not task.done:
            snapshot = task.step(max_work=25)
            bounds.append(snapshot.bound)
        assert bounds[-1] == task.result().size
        assert all(b >= task.result().size for b in bounds)


class TestTaskLifecycle:
    def test_snapshot_fields_and_work_counter(self):
        session = Session(small_graph(1))
        task = session.task(4, "lp")
        snapshot = task.step(max_work=10)
        assert snapshot.work == 10 and task.work == 10
        assert snapshot.state in ("ready", "done")
        final = task.step()  # drive to completion
        assert final.done and final.state == "done"
        assert task.result().size == final.size

    def test_pause_resume(self):
        session = Session(small_graph(1))
        task = session.task(4, "lp")
        task.step(max_work=5)
        task.pause()
        before = task.work
        assert task.step(max_work=5).state == "paused"
        assert task.work == before  # paused step does no work
        task.resume()
        assert task.step(max_work=5).work == before + 5

    def test_result_before_done_raises(self):
        session = Session(small_graph(1))
        task = session.task(4, "lp")
        task.step(max_work=1)
        with pytest.raises(InvalidParameterError, match="not completed"):
            task.result()

    def test_progress_events_fire_on_improvement(self):
        session = Session(powerlaw_cluster(250, 6, 0.7, seed=4))
        events = []
        task = session.task(3, "lp")
        task.on_progress(events.append)
        while not task.done:
            task.step(max_work=20)
        assert events, "at least the completion event must fire"
        assert events[-1].done
        sizes = [e.size for e in events]
        assert sizes == sorted(sizes)

    def test_max_seconds_step_bound(self):
        session = Session(powerlaw_cluster(400, 6, 0.6, seed=6))
        task = session.task(4, "lp")
        snapshot = task.step(max_seconds=0.001)
        # The time bound must still make progress (at least one unit).
        assert snapshot.work > 0

    def test_bad_arguments(self):
        session = Session(small_graph(1))
        with pytest.raises(InvalidParameterError, match="not resumable"):
            session.task(3, "gc")
        with pytest.raises(InvalidParameterError, match="time_budget"):
            session.task(3, "opt-bb", time_budget=1.0)
        task = session.task(3, "lp")
        with pytest.raises(InvalidParameterError, match="max_work"):
            task.step(max_work=0)


class TestWarmStart:
    def test_warm_start_seeds_valid_cliques(self):
        g = small_graph(8)
        session = Session(g)
        prev = session.solve(4, "lp")
        task = session.task(4, "lp", warm_start=prev)
        result = task.run()
        verify_solution(g, 4, result.cliques)
        assert is_maximal(g, 4, result.cliques)
        assert result.stats["warm_seeded"] == prev.size
        assert result.size >= prev.size

    def test_warm_start_filters_stale_cliques(self):
        g = small_graph(9)
        session = Session(g)
        # Cliques that are not cliques of g (and overlapping ones) are
        # silently skipped, never crash the engine.
        junk = [frozenset({0, 1, 2, 3}), frozenset({10_000, 10_001, 10_002, 10_003})]
        result = session.task(4, "lp", warm_start=junk).run()
        verify_solution(g, 4, result.cliques)

    def test_warm_start_rejected_for_unsupported_method(self):
        from repro.core.basic import BasicEngine
        from repro.core.registry import HGOptions, SolverRegistry

        registry = SolverRegistry()

        @registry.register(
            "hg-nw",
            summary="resumable but no warm start",
            exact=False,
            options=HGOptions,
            engine=lambda prep, k, opts, warm_start=None: BasicEngine(
                prep.graph, k, order=opts.order
            ),
        )
        def _run(prep, k, opts):
            raise AssertionError("not driven in this test")

        session = Session(small_graph(1), registry=registry, default_method="hg-nw")
        with pytest.raises(InvalidParameterError, match="warm_start"):
            session.task(3, "hg-nw", warm_start=[])

    def test_exact_warm_incumbent_preserves_optimality(self):
        g = watts_strogatz(30, 6, 0.2, seed=2)
        session = Session(g)
        optimum = session.solve(3, "opt-bb")
        heuristic = session.solve(3, "lp")
        warm = session.task(3, "opt-bb", warm_start=heuristic).run()
        assert warm.size == optimum.size
        verify_solution(g, 3, warm.cliques)

    def test_dynamic_warm_restart_after_updates(self):
        g = powerlaw_cluster(200, 6, 0.7, seed=11)
        session = Session(g)
        dyn = session.dynamic(4)
        pre_update = dyn.solution()
        edges = sorted(tuple(sorted(e)) for e in g.edges())[:10]
        for u, v in edges:
            dyn.delete_edge(u, v)
        updated = dyn.graph.snapshot()
        warm_session = Session(updated)
        dyn2 = warm_session.dynamic(4, warm_start=pre_update)
        dyn2.check_invariants()
        # The warm seed survives where still valid.
        seeded = warm_session.task(4, "lp", warm_start=pre_update).run()
        assert seeded.stats.get("warm_seeded", 0) > 0


class TestTaskRepr:
    def test_repr_mentions_state(self):
        session = Session(small_graph(1))
        task = session.task(4, "lp")
        assert "lp" in repr(task) and "ready" in repr(task)
        assert isinstance(task, SolveTask)
