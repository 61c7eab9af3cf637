"""Regression tests for defects surfaced by the repro-lint sweep.

Each class pins one fixed defect so it cannot silently return:

* numpy values (an ndarray ``order``, numpy stats scalars) reaching
  ``SolveTask.checkpoint`` made the checkpoint non-JSON-serialisable;
* the lazily built CSR/fingerprint memos were written without a lock,
  so concurrent first calls could build twice and hand different
  objects to different threads;
* ``Server`` flipped ``_shutting_down`` outside its lock;
* an ``l``/``lp`` checkpoint with an unknown engine phase restored
  into a task that burned work forever without finishing;
* an ``l``/``lp`` checkpoint with an out-of-range ``next_root``, a
  non-clique heap entry or a non-disjoint solution restored into a task
  that livelocked, crashed untyped or finished with an invalid answer;
* the degeneracy order broke ties in neighbour-set iteration order, so
  equal graphs from differently ordered edge lists (one fingerprint,
  one pooled session) got different ranks and ``hg`` solutions;
* a malformed edge (not a pair, or a non-integer endpoint) failed with
  a bare ``TypeError``/``ValueError`` instead of ``GraphError``;
* an ``opt-bb`` checkpoint with repeated, extra, overlapping or
  out-of-range clique indices, or a malformed stack frame, restored
  into a task that finished with an invalid answer or crashed untyped;
* a direct ``exact_optimum`` numbered cliques in enumeration order, so
  it broke ties differently from ``Session.solve(k, "opt")``;
* a non-integer update endpoint was truncated by ``int()`` (``2.7``
  became node 2, ``"4"`` node 4) in batch planning and feed pushes, and
  failed with a bare ``TypeError`` in ``DynamicGraph`` updates, where
  ``Graph`` raises ``GraphError``;
* a warm start's nodes went through ``int()``, so ``0.9`` and ``"0"``
  seeded node 0, while a non-numeric node or a clique that is not
  iterable failed with a bare ``ValueError``/``TypeError``.
"""

import json
import threading

import numpy as np
import pytest

from repro import Session, verify_solution
from repro.core.exact import exact_optimum
from repro.errors import GraphError, InvalidParameterError
from repro.graph.generators import erdos_renyi_gnp, powerlaw_cluster, watts_strogatz
from repro.graph.dag import OrientedGraph
from repro.graph.graph import Graph
from repro.graph.kcore import core_numbers
from repro.graph.ordering import by_degeneracy
from repro.jsonsafe import json_safe
from repro.serve import Client, Server

TRIANGLES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]


class TestJsonSafe:
    def test_passthrough_plain_values(self):
        for value in (None, True, 3, 2.5, "x"):
            assert json_safe(value) is value

    def test_numpy_scalars_become_python_scalars(self):
        out = json_safe(
            {"n": np.int64(7), "t": np.float64(0.5), "flag": np.bool_(True)}
        )
        assert out == {"n": 7, "t": 0.5, "flag": True}
        assert type(out["n"]) is int
        assert type(out["t"]) is float
        assert type(out["flag"]) is bool

    def test_ndarray_becomes_nested_lists(self):
        out = json_safe({"order": np.arange(6).reshape(2, 3)})
        assert out == {"order": [[0, 1, 2], [3, 4, 5]]}
        json.dumps(out)  # truly wire-safe

    def test_sets_sorted_and_tuples_listified(self):
        out = json_safe({"s": frozenset({3, 1, 2}), "t": (1, 2)})
        assert out == {"s": [1, 2, 3], "t": [1, 2]}

    def test_unencodable_type_raises_typeerror_naming_type(self):
        with pytest.raises(TypeError, match="object"):
            json_safe({"bad": object()})


class TestCheckpointNumpySafety:
    def test_ndarray_order_checkpoint_is_json_serialisable(self):
        """An array-valued ``order`` option must survive json.dumps."""
        make = lambda: powerlaw_cluster(150, 6, 0.7, seed=9)  # noqa: E731
        session = Session(make())
        rank = np.argsort(np.argsort(session.graph.degrees))
        task = session.task(4, "hg", order=rank)
        task.step(max_work=40)

        blob = json.loads(json.dumps(task.checkpoint()))

        restored = Session(make()).restore_task(blob)
        result = restored.run()
        reference = session.solve(4, "hg", order=rank)
        assert result.sorted_cliques() == reference.sorted_cliques()

    def test_finished_exact_bb_checkpoint_is_json_serialisable(self):
        session = Session(watts_strogatz(30, 6, 0.2, seed=3))
        task = session.task(3, "opt-bb")
        task.run()
        json.dumps(task.checkpoint())  # engine stats may hold numpy scalars


class ConcurrencyHarness:
    """Hammer one lazy memo from many threads; all must see one object."""

    THREADS = 8

    def hammer(self, fn):
        barrier = threading.Barrier(self.THREADS)
        results: list[object] = [None] * self.THREADS
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                barrier.wait()
                results[slot] = fn()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        return results


class TestLazyMemoThreadSafety(ConcurrencyHarness):
    def test_graph_csr_built_once_across_threads(self):
        graph = powerlaw_cluster(400, 5, 0.6, seed=11)
        results = self.hammer(graph.csr)
        assert all(r is results[0] for r in results)

    def test_graph_sets_built_once_across_threads(self):
        import sys

        graph = powerlaw_cluster(400, 5, 0.6, seed=15)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = self.hammer(lambda: graph.neighbors(0))
        finally:
            sys.setswitchinterval(interval)
        assert all(r is results[0] for r in results)
        assert graph.has_sets
        assert sorted(graph.edges()) == [
            (u, v) for u in graph.nodes() for v in graph.csr().row(u).tolist() if u < v
        ]

    def test_oriented_csr_built_once_across_threads(self):
        graph = powerlaw_cluster(400, 5, 0.6, seed=12)
        oriented = OrientedGraph.orient(graph, "degeneracy")
        results = self.hammer(oriented.csr)
        assert all(r is results[0] for r in results)

    def test_oriented_out_sets_built_once_across_threads(self):
        graph = powerlaw_cluster(400, 5, 0.6, seed=14)
        oriented = OrientedGraph.orient(graph, "degeneracy")
        results = self.hammer(lambda: oriented.out)
        assert all(r is results[0] for r in results)

    def test_session_fingerprint_stable_across_threads(self):
        session = Session(powerlaw_cluster(400, 5, 0.6, seed=13))
        results = self.hammer(session.fingerprint)
        assert len(set(results)) == 1
        assert results[0] == Session(
            powerlaw_cluster(400, 5, 0.6, seed=13)
        ).fingerprint()


class TestServerShutdownGuard:
    def test_concurrent_close_is_idempotent(self):
        server = Server(workers=2)
        server.register_graph("g", Graph.from_edges(TRIANGLES))
        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def closer() -> None:
            try:
                barrier.wait()
                server.close()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_shutdown_refuses_new_compute_requests(self):
        server = Server(workers=1)
        client = Client(server)
        server.register_graph("g", Graph.from_edges(TRIANGLES))
        client.shutdown()
        with pytest.raises(InvalidParameterError):
            client.ping()
        server.close()


class TestFeedClockOutsideLock:
    """The holdcalling sweep: ``DynamicFeed`` invoked its injected clock
    (an arbitrary user callable) while holding the feed lock. The fix
    samples the clock once per operation before acquiring the lock."""

    def _feed(self, clock):
        from repro.serve.feeds import DynamicFeed, FlushPolicy

        session = Session(Graph.from_edges(TRIANGLES))
        return DynamicFeed(
            session, 3, policy=FlushPolicy(max_updates=2, max_age=10.0), clock=clock
        )

    def test_clock_never_called_under_feed_lock(self):
        feed_holder: list = []

        def nosy_clock() -> float:
            if feed_holder:
                lock = feed_holder[0]._lock
                # A re-entrant acquire succeeding non-blockingly from
                # this thread proves the feed lock is NOT held here
                # (RLock: re-entry always succeeds if we held it, and
                # acquiring when free succeeds too — so instead assert
                # via the tracked wrapper when available).
                assert not getattr(lock, "_is_owned", lambda: False)(), (
                    "clock invoked while the feed lock is held"
                )
            return 0.0

        feed = self._feed(nosy_clock)
        feed_holder.append(feed)
        feed.push([("insert", 0, 3)])
        feed.flush()
        feed.maybe_flush()
        feed.solution()
        _ = feed.size

    def test_age_flush_uses_one_pre_lock_timestamp(self):
        ticks = iter([0.0, 100.0, 200.0, 300.0])
        feed = self._feed(lambda: next(ticks))
        feed.push([("insert", 0, 3)])  # buffers at t=0
        report = feed.maybe_flush()  # t=100 >= max_age -> flushes
        assert report is not None
        assert feed.stats["age_flushes"] == 1


class TestHarnessForkGuard:
    """The migration sweep: ``run_cell_subprocess`` ships a closure
    through ``Process(args=...)``, which only survives under the fork
    start method. Platforms without fork now fall back to in-process
    cooperative enforcement instead of crashing on pickling."""

    def test_falls_back_in_process_without_fork(self, monkeypatch):
        import multiprocessing

        from repro.bench import harness

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )

        def boom(*args, **kwargs):  # pragma: no cover - must not be hit
            raise AssertionError("fork context requested without fork support")

        monkeypatch.setattr(multiprocessing, "get_context", boom)
        outcome = harness.run_cell_subprocess(lambda: 41 + 1, time_budget=5.0)
        assert outcome.value == 42

    def test_forked_path_still_used_when_available(self):
        from repro.bench import harness

        outcome = harness.run_cell_subprocess(lambda: "ok", time_budget=10.0)
        assert outcome.value == "ok"


class TestIterationOrderDefects:
    """The iterorder sweep (PR 10): order-bearing values must not inherit
    hash-table iteration order. Each test pins one fixed site."""

    def test_subgraph_edge_list_is_sorted(self):
        # graph/graph.py formerly aliased ``index.keys()`` and iterated
        # raw adjacency sets; the edge list is now lexicographically
        # sorted regardless of input order.
        graph = Graph(6, TRIANGLES)
        sub, mapping = graph.subgraph_with_mapping([5, 3, 4, 0, 2, 1])
        assert mapping == [0, 1, 2, 3, 4, 5]
        edges = [
            (u, v) for u in range(sub.n) for v in sorted(sub.neighbors(u)) if u < v
        ]
        assert edges == sorted(edges)
        # Scrambled input yields the identical subgraph.
        sub2, mapping2 = graph.subgraph_with_mapping([1, 0, 2, 5, 4, 3])
        assert mapping2 == mapping
        assert sorted(sub2.edges()) == sorted(sub.edges())

    def test_generator_edge_lists_are_canonical(self):
        from repro.graph.generators import erdos_renyi_gnm, watts_strogatz

        g1 = erdos_renyi_gnm(40, 120, seed=7)
        g2 = erdos_renyi_gnm(40, 120, seed=7)
        assert sorted(g1.edges()) == sorted(g2.edges())
        w1 = watts_strogatz(30, 4, 0.3, seed=3)
        w2 = watts_strogatz(30, 4, 0.3, seed=3)
        assert sorted(w1.edges()) == sorted(w2.edges())

    def test_mis_kernel_is_input_order_invariant(self):
        # mis/reductions.py formerly scanned ``list(alive)`` (set order);
        # both reduction loops now scan ascending, so the kernel is a
        # pure function of the graph.
        from repro.mis.reductions import reduce_mis

        graph = powerlaw_cluster(60, 3, 0.4, seed=11)
        k1 = reduce_mis(graph)
        k2 = reduce_mis(Graph(graph.n, sorted(graph.edges(), reverse=True)))
        assert k1.mapping == k2.mapping
        assert sorted(k1.forced) == sorted(k2.forced)
        assert sorted(k1.kernel.edges()) == sorted(k2.kernel.edges())

    def test_maintainer_snapshot_is_owner_sorted(self):
        # dynamic/maintainer.py formerly listed solution cliques in dict
        # insertion order (the update trajectory); snapshots are now
        # owner-sorted, so equivalent trajectories agree exactly.
        from repro.dynamic import DynamicDisjointCliques

        graph = powerlaw_cluster(80, 5, 0.5, seed=4)
        dyn = DynamicDisjointCliques(graph, 3)
        snapshot = dyn.solution()
        expected = [
            dyn.index.solution[owner] for owner in sorted(dyn.index.solution)
        ]
        assert list(snapshot.cliques) == expected

    def test_clique_graph_build_is_repeatable(self):
        # cliques/clique_graph.py now feeds Graph a sorted edge list, so
        # repeated builds are bit-identical structures.
        from repro.cliques.clique_graph import build_clique_graph

        graph = powerlaw_cluster(50, 4, 0.5, seed=9)
        a = build_clique_graph(graph, 3)
        b = build_clique_graph(graph, 3)
        assert a.cliques == b.cliques
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())


class TestCheckpointPhaseValidation:
    """A tampered ``engine.phase`` matched no ``tick()`` branch, so the
    restored task stepped forever; restore now fails typed, and a
    checkpoint in the previous (version 1) format fails the version
    check before its dropped ``workers`` option is read."""

    @staticmethod
    def _blob(session):
        task = session.task(3, "lp")
        task.step(max_work=5)
        return json.loads(json.dumps(task.checkpoint()))

    def test_unknown_phase_is_rejected(self):
        session = Session(powerlaw_cluster(100, 5, 0.6, seed=1))
        blob = self._blob(session)
        blob["engine"]["phase"] = "bogus"
        with pytest.raises(InvalidParameterError, match="phase 'bogus'"):
            session.restore_task(blob)

    def test_version_one_checkpoint_fails_the_version_check(self):
        session = Session(powerlaw_cluster(100, 5, 0.6, seed=1))
        blob = self._blob(session)
        blob["version"] = 1
        blob["options"] = {"workers": 1, "backend": "auto"}
        with pytest.raises(InvalidParameterError, match="checkpoint version 1"):
            session.restore_task(blob)

    def test_version_two_checkpoint_fails_the_version_check(self):
        """Version 2 carried the dropped ``backend`` option of ``l``/``lp``."""
        session = Session(powerlaw_cluster(100, 5, 0.6, seed=1))
        blob = self._blob(session)
        blob["version"] = 2
        blob["options"] = {"backend": "auto"}
        with pytest.raises(InvalidParameterError, match="checkpoint version 2"):
            session.restore_task(blob)


class TestCheckpointStateValidation:
    """``LightweightEngine.load_state`` trusted the restored state: a
    negative ``next_root`` livelocked (one stale pop and one re-push per
    tick), a huge one raised a bare ``IndexError``, and a heap entry or
    solution that is no k-clique, or a solution that repeats a clique,
    finished with an answer ``verify_solution`` rejects; an ``"init"``
    phase at ``next_root == n``, a ``"drain"`` phase with an empty heap
    and a heap key clique that is not a list crashed the next tick with
    a bare ``IndexError`` or ``TypeError``. Each now fails the restore
    with :class:`InvalidParameterError`."""

    @staticmethod
    def _tampered(edit):
        session = Session(powerlaw_cluster(200, 5, 0.6, seed=3))
        task = session.task(3, "lp")
        # HeapInit is one work unit: step until the drain has taken a
        # clique (a bounded number of units).
        for _ in range(230):
            task.step(max_work=1)
            blob = json.loads(json.dumps(task.checkpoint()))
            if blob["engine"]["phase"] == "drain" and blob["engine"]["solution"]:
                break
        assert blob["engine"]["phase"] == "drain" and blob["engine"]["solution"]
        assert not session.graph.has_edge(0, 1)  # [0, 1, 2] is no clique
        edit(blob["engine"])
        return session, blob

    def _assert_rejected(self, edit, match):
        session, blob = self._tampered(edit)
        with pytest.raises(InvalidParameterError, match=match):
            session.restore_task(blob)

    def test_negative_next_root_is_rejected(self):
        self._assert_rejected(lambda e: e.update(next_root=-50), "next_root -50")

    def test_next_root_past_n_is_rejected(self):
        self._assert_rejected(lambda e: e.update(next_root=10**6), "next_root 1000000")

    def test_non_clique_heap_entry_is_rejected(self):
        def edit(engine):
            engine["heap"][0] = [3, [0, 1, 2], 0, [0, 1, 2]]

        self._assert_rejected(edit, r"heap clique \[0, 1, 2\]")

    def test_non_clique_solution_is_rejected(self):
        self._assert_rejected(
            lambda e: e["solution"].append([0, 1, 2]), r"solution clique \[0, 1, 2\]"
        )

    def test_repeated_solution_clique_is_rejected(self):
        self._assert_rejected(
            lambda e: e["solution"].append(list(e["solution"][0])), "overlaps"
        )

    def test_init_phase_at_next_root_n_is_rejected(self):
        self._assert_rejected(
            lambda e: e.update(phase="init", next_root=200), "phase 'init'"
        )

    def test_drain_phase_with_empty_heap_is_rejected(self):
        self._assert_rejected(lambda e: e.update(heap=[]), "empty heap")

    def test_non_list_heap_key_clique_is_rejected(self):
        def edit(engine):
            engine["heap"][0][1] = 5

        self._assert_rejected(edit, r"heap key \(\d+, 5\)")

    def test_untampered_checkpoint_still_restores_and_finishes(self):
        session, blob = self._tampered(lambda e: None)
        task = session.restore_task(blob)
        assert task.run().sorted_cliques() == session.solve(3, "lp").sorted_cliques()


class TestHGCheckpointStateValidation:
    """``BasicEngine.load_state`` trusted the restored state: a solution
    clique that is no k-clique of the graph (repeated, a non-edge, short
    or negative ids) finished with an answer ``verify_solution`` rejects,
    node ids past n raised a bare ``IndexError``, a non-int ``pos`` a
    bare ``ValueError``, and a ``pos`` past n ended the scan at once with
    a non-maximal solution. Each now fails the restore with
    :class:`InvalidParameterError`."""

    @staticmethod
    def _tampered(edit):
        session = Session(powerlaw_cluster(200, 5, 0.5, seed=3))
        task = session.task(3, "hg")
        for _ in range(200):
            if task.best().size >= 6:
                break
            task.step(max_work=1)
        blob = json.loads(json.dumps(task.checkpoint()))
        assert len(blob["engine"]["solution"]) == 6
        assert not session.graph.has_edge(0, 1)  # [0, 1, 2] is no clique
        edit(blob["engine"])
        return session, blob

    def _assert_rejected(self, edit, match):
        session, blob = self._tampered(edit)
        with pytest.raises(InvalidParameterError, match=match):
            session.restore_task(blob)

    def test_repeated_solution_clique_is_rejected(self):
        self._assert_rejected(
            lambda e: e["solution"].append(list(e["solution"][0])), "overlaps"
        )

    def test_non_clique_solution_is_rejected(self):
        self._assert_rejected(
            lambda e: e["solution"].append([0, 1, 2]), r"solution clique \[0, 1, 2\]"
        )

    def test_short_solution_clique_is_rejected(self):
        self._assert_rejected(
            lambda e: e["solution"].append([0, 1]), r"solution clique \[0, 1\]"
        )

    def test_negative_solution_nodes_are_rejected(self):
        self._assert_rejected(
            lambda e: e["solution"].append([-1, -2, -3]), r"solution clique \[-1"
        )

    def test_solution_nodes_past_n_are_rejected(self):
        self._assert_rejected(
            lambda e: e["solution"].append([200, 201, 202]), r"solution clique \[200"
        )

    def test_non_int_pos_is_rejected(self):
        self._assert_rejected(lambda e: e.update(pos="x"), "pos 'x'")

    def test_pos_past_n_is_rejected(self):
        self._assert_rejected(lambda e: e.update(pos=10**9), "pos 1000000000")

    def test_untampered_checkpoint_finishes_like_a_cold_solve(self):
        session, blob = self._tampered(lambda e: None)
        result = session.restore_task(blob).run()
        cold = session.solve(3, "hg")
        assert result.sorted_cliques() == cold.sorted_cliques()
        assert result.stats == cold.stats


class TestEdgeOrderIndependence:
    """``by_degeneracy`` broke ties in neighbour-set iteration order,
    which follows the edge list's order; the peel reads sorted rows."""

    def test_shuffled_edge_list_gives_same_order_cores_and_hg(self):
        import random

        graph = powerlaw_cluster(2000, 4, 0.6, seed=3)
        rank = by_degeneracy(graph).tolist()
        cores = core_numbers(graph).tolist()
        hg = Session(graph).solve(4, "hg", order="degeneracy").sorted_cliques()
        edges = list(graph.edges())
        for seed in (0, 1, 3):
            random.Random(seed).shuffle(edges)
            shuffled = Graph(graph.n, edges)
            assert shuffled == graph
            assert by_degeneracy(shuffled).tolist() == rank
            assert core_numbers(shuffled).tolist() == cores
            solution = Session(shuffled).solve(4, "hg", order="degeneracy")
            assert solution.sorted_cliques() == hg


class TestMalformedEdges:
    """Malformed edges raised a bare ``TypeError``/``ValueError``."""

    def test_float_endpoint_is_rejected(self):
        with pytest.raises(GraphError, match="non-integer endpoint"):
            Graph(4, [(0, 1), (1.5, 2)])

    def test_string_endpoint_is_rejected(self):
        with pytest.raises(GraphError, match="non-integer endpoint"):
            Graph(4, [("1", 2)])

    def test_triple_is_rejected(self):
        with pytest.raises(GraphError, match="not a \\(u, v\\) pair"):
            Graph(4, [(1, 2, 3)])

    def test_single_is_rejected(self):
        with pytest.raises(GraphError, match="not a \\(u, v\\) pair"):
            Graph(4, [(0, 1), (1,)])

    def test_integer_likes_are_accepted(self):
        plain = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert Graph(4, [(np.int64(0), 1), (np.int32(1), np.uint8(2)), (2, 3)]) == plain
        assert Graph(4, [(False, True), (True, 2), (2, 3)]) == plain

    def test_first_offending_edge_is_reported(self):
        with pytest.raises(GraphError, match=r"edge \(0, 5\) outside node range \[0, 4\)"):
            Graph(4, [(0, 1), (0, 5), (2, 2), (1.5, 2)])
        with pytest.raises(GraphError, match="self-loop on node 2"):
            Graph(4, [(0, 1), (2, 2), (0, 5)])
        with pytest.raises(GraphError, match="outside node range"):
            Graph(4, [(0, 2**70)])


class TestNonIntegerUpdateEndpoints:
    """Dynamic updates apply ``Graph``'s integer rule to endpoints."""

    EDGES = [(0, 1), (1, 2), (0, 2), (3, 4)]
    BAD = (2.7, "4", 1.0, None)

    def _maintainer(self):
        from repro.dynamic import DynamicDisjointCliques

        return DynamicDisjointCliques(Graph(6, self.EDGES), 3)

    @pytest.mark.parametrize("bad", BAD)
    def test_graph_rejects_the_same_values(self, bad):
        with pytest.raises(GraphError, match="non-integer endpoint"):
            Graph(6, [(bad, 5)])

    @pytest.mark.parametrize("bad", BAD)
    def test_batch_rejects_before_any_mutation(self, bad):
        dyn = self._maintainer()
        edges, stats = sorted(dyn.graph.edges()), dict(dyn.stats)
        with pytest.raises(GraphError, match="non-integer endpoint"):
            dyn.apply_batch([("insert", 0, 5), ("insert", bad, 5)])
        assert sorted(dyn.graph.edges()) == edges
        assert dyn.stats == stats

    def test_truncating_batch_from_the_report_is_rejected(self):
        dyn = self._maintainer()
        with pytest.raises(GraphError, match="non-integer endpoint"):
            dyn.apply_batch([("insert", 2.7, 5), ("insert", "4", 5)])
        assert not dyn.graph.has_edge(2, 5) and not dyn.graph.has_edge(4, 5)

    @pytest.mark.parametrize("bad", BAD)
    def test_per_edge_updates_raise_graph_error(self, bad):
        dyn = self._maintainer()
        edges = sorted(dyn.graph.edges())
        graph = dyn.graph
        for update in (dyn.insert_edge, dyn.delete_edge, graph.insert_edge, graph.delete_edge):
            with pytest.raises(GraphError, match="non-integer endpoint"):
                update(bad, 3)
            with pytest.raises(GraphError, match="non-integer endpoint"):
                update(3, bad)
        assert sorted(dyn.graph.edges()) == edges

    @pytest.mark.parametrize("bad", BAD)
    def test_feed_push_rejects_before_buffering(self, bad):
        from repro.serve.feeds import DynamicFeed

        feed = DynamicFeed(Session(Graph(6, self.EDGES)), 3)
        with pytest.raises(GraphError, match="non-integer endpoint"):
            feed.push([("insert", 0, 5), ("delete", 1, bad)])
        assert feed.pending == 0

    def test_integer_likes_are_accepted_as_plain_ints(self):
        from repro.dynamic.batch import validate_update

        want, u, v = validate_update("delete", np.int32(2), False, 6)
        assert (want, u, v) == (False, 2, 0)
        assert type(u) is int and type(v) is int
        dyn = self._maintainer()
        assert dyn.insert_edge(np.int64(4), True)
        batch = dyn.apply_batch([("insert", np.uint8(5), np.int16(3))])
        assert batch.inserts == ((3, 5),)
        assert all(type(x) is int for x in batch.inserts[0])
        dyn.check_invariants()


class TestExactBBRestoreValidation:
    """``ExactBBEngine.load_state`` cast the restored state and checked
    nothing: a ``best`` of one index repeated finished with copies of
    one clique, extra ``best`` indices finished with overlapping
    cliques, a repeated ``chosen`` index finished with an answer
    ``verify_solution`` rejects, and an index past the clique list, a
    non-hex ``used`` mask or a non-list ``best`` raised a bare
    ``IndexError``, ``ValueError`` or ``TypeError``. Each now fails the
    restore with :class:`InvalidParameterError`."""

    @staticmethod
    def _tampered(edit):
        session = Session(powerlaw_cluster(40, 4, 0.6, seed=5))
        task = session.task(3, "opt-bb")
        task.step(max_work=20)
        blob = json.loads(json.dumps(task.checkpoint()))
        engine = blob["engine"]
        assert len(engine["best"]) >= 2 and engine["chosen"] and engine["stack"]
        edit(engine)
        return session, blob

    def _assert_rejected(self, edit, match):
        session, blob = self._tampered(edit)
        with pytest.raises(InvalidParameterError, match=match):
            session.restore_task(blob)

    def test_repeated_best_index_is_rejected(self):
        self._assert_rejected(
            lambda e: e.update(best=[e["best"][0]] * 12), "best clique .* repeats"
        )

    def test_extra_best_indices_are_rejected(self):
        def edit(engine):
            extra = [i for i in range(200) if i not in engine["best"]][:2]
            engine["best"] = engine["best"] + extra

        self._assert_rejected(edit, "best clique .* overlaps")

    def test_repeated_chosen_index_is_rejected(self):
        self._assert_rejected(
            lambda e: e["chosen"].append(e["chosen"][0]), "chosen clique .* repeats"
        )

    def test_out_of_range_index_is_rejected(self):
        self._assert_rejected(
            lambda e: e["best"].append(10**6), "best index 1000000 is outside"
        )

    def test_non_hex_mask_is_rejected(self):
        self._assert_rejected(
            lambda e: e["stack"][0].__setitem__(1, "zz"), r"frame \[\d+, 'zz'"
        )

    def test_non_list_best_is_rejected(self):
        self._assert_rejected(lambda e: e.update(best=7), "best 7 is not a list")

    def test_short_frame_is_rejected(self):
        self._assert_rejected(
            lambda e: e["stack"].__setitem__(0, e["stack"][0][:3]),
            r"frame \[\d+, '0', False\] at depth 0 is not \[next_i",
        )

    def test_frame_that_does_not_cover_chosen_is_rejected(self):
        # A zeroed mask would let the search take a clique that overlaps
        # one already chosen.
        self._assert_rejected(
            lambda e: e["stack"][-1].__setitem__(1, "0"), r"frame \[\d+, '0', True"
        )

    def test_descending_chosen_is_rejected(self):
        # Disjoint and in range, but no search chooses in that order.
        self._assert_rejected(
            lambda e: e["chosen"].reverse(), "cannot hold chosen"
        )

    def test_untampered_checkpoint_still_restores(self):
        session, blob = self._tampered(lambda e: None)
        task = session.restore_task(blob)
        assert task.engine.state_dict() == blob["engine"]

    def test_untampered_checkpoint_finishes_like_a_cold_run(self):
        # A graph whose search finishes in milliseconds (the one above
        # takes tens of seconds to prove its optimum).
        session = Session(watts_strogatz(40, 6, 0.2, seed=1))
        task = session.task(3, "opt-bb")
        task.step(max_work=20)
        blob = json.loads(json.dumps(task.checkpoint()))
        assert blob["engine"]["chosen"]
        result = session.restore_task(blob).run()
        verify_solution(session.graph, 3, result.cliques)
        assert result.sorted_cliques() == session.solve(3, "opt-bb").sorted_cliques()


class TestExactOptimumCliqueOrder:
    """``build_clique_graph`` numbered enumerated cliques in enumeration
    order, so a direct ``exact_optimum(g, k)`` broke exact-MIS ties
    differently from ``Session(g).solve(k, "opt")``, which passes the
    sorted cached listing: 101 of these 160 cases differed."""

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize(
        "make",
        [
            lambda seed: erdos_renyi_gnp(25, 0.3, seed=seed),
            lambda seed: powerlaw_cluster(40, 4, 0.6, seed=seed),
        ],
        ids=["gnp", "powerlaw"],
    )
    def test_direct_call_equals_session_opt(self, make, k):
        for seed in range(40):
            graph = make(seed)
            direct = exact_optimum(graph, k).sorted_cliques()
            assert direct == Session(graph).solve(k, "opt").sorted_cliques(), seed


class TestNonIntegerWarmStartNodes:
    """Warm-start nodes follow ``Graph``'s integer rule. On this graph
    the ``hg`` k=3 solution holds the clique (0, 16, 58), which
    ``[0.9, 16, 58]`` and ``["0", 16, 58]`` used to seed."""

    BAD = ([[0.9, 16, 58]], [["0", 16, 58]], [["a", 1, 2]], [5], [None])

    @pytest.fixture(scope="class")
    def session(self):
        session = Session(powerlaw_cluster(60, 4, 0.6, seed=2))
        assert (0, 16, 58) in session.solve(3, "hg").sorted_cliques()
        return session

    @pytest.mark.parametrize("bad", BAD)
    def test_task_rejects_the_warm_start(self, session, bad):
        with pytest.raises(InvalidParameterError, match="not an iterable of integer nodes"):
            session.task(3, "lp", warm_start=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_dynamic_rejects_the_warm_start(self, session, bad):
        with pytest.raises(InvalidParameterError, match="not an iterable of integer nodes"):
            session.dynamic(3, "lp", warm_start=bad)

    def test_integer_likes_still_seed(self, session):
        for seed in ([[0, 16, 58]], [[np.int64(0), np.uint8(16), 58]]):
            result = session.task(3, "lp", warm_start=seed).run()
            assert result.stats["warm_seeded"] == 1
            assert (0, 16, 58) in result.sorted_cliques()
        dyn = session.dynamic(3, "lp", warm_start=[[np.int32(0), 16, 58]])
        assert frozenset((0, 16, 58)) in dyn.index.solution.values()

    def test_stale_candidates_are_still_skipped(self, session):
        # Out of range, not a clique, too small, and overlapping.
        stale = [[60, 1, 2], [-1, 0, 1], [1, 2, 3], [16, 58], [0, 16, 58]]
        result = session.task(3, "lp", warm_start=[[0, 16, 58], *stale]).run()
        assert result.stats["warm_seeded"] == 1
