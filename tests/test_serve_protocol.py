"""End-to-end protocol tests: server + in-process client.

The load-bearing assertion throughout: anything returned by the serving
layer is identical to what a direct ``Session`` call returns — serving
is a transport, never a different algorithm.
"""

import threading

import pytest

from repro.analysis.bounds import optimum_upper_bounds
from repro.core.session import Session
from repro.dynamic.maintainer import DynamicDisjointCliques
from repro.errors import (
    InvalidParameterError,
    OutOfMemoryError,
    OverloadedError,
    ProtocolError,
    UnknownFeedError,
    UnknownGraphError,
)
from repro.graph.generators import powerlaw_cluster
from repro.graph.graph import Graph
from repro.serve import Client, Server
from repro.serve.protocol import (
    OPERATIONS,
    decode_request,
    encode,
    error_code_for,
    error_response,
)

TRIANGLES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]


@pytest.fixture()
def served():
    server = Server(workers=2, max_sessions=8)
    yield server, Client(server)
    server.close()


@pytest.fixture()
def social():
    return powerlaw_cluster(250, 5, 0.6, seed=21)


class TestAdmin:
    def test_ping(self, served):
        _, client = served
        assert client.ping() == {"pong": True}

    def test_register_graph_roundtrip(self, served):
        _, client = served
        reg = client.register_graph("tiny", Graph(6, TRIANGLES))
        assert reg["n"] == 6 and reg["m"] == 6
        assert reg["fingerprint"].startswith("g1-")

    def test_register_requires_exactly_one_source(self, served):
        _, client = served
        with pytest.raises(ProtocolError):
            client.call("register_graph", name="x")
        with pytest.raises(ProtocolError):
            client.call(
                "register_graph", name="x", edges=[[0, 1]], dataset="FTB"
            )

    def test_register_from_dataset(self, served):
        _, client = served
        reg = client.call("register_graph", name="ftb", dataset="FTB")
        assert reg["n"] == 115

    def test_register_from_path(self, served, tmp_path):
        _, client = served
        path = tmp_path / "g.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in TRIANGLES))
        reg = client.call("register_graph", name="file", path=str(path))
        assert reg["m"] == 6

    def test_unregister_graph_frees_name_and_session(self, served):
        server, client = served
        reg = client.register_graph("tiny", Graph(6, TRIANGLES))
        res = client.unregister_graph("tiny")
        assert res["unregistered"] and res["session_evicted"]
        assert reg["fingerprint"] not in server.pool
        with pytest.raises(UnknownGraphError):
            client.solve("tiny", 3)
        with pytest.raises(UnknownGraphError):
            client.unregister_graph("tiny")

    def test_unregister_keeps_session_shared_by_another_name(self, served):
        server, client = served
        reg = client.register_graph("a", Graph(6, TRIANGLES))
        client.register_graph("b", Graph(6, list(reversed(TRIANGLES))))
        res = client.unregister_graph("a")
        assert res["unregistered"] and not res["session_evicted"]
        assert reg["fingerprint"] in server.pool  # "b" still needs it
        assert client.solve("b", 3)["size"] == 2

    def test_booleans_are_not_integers_on_the_wire(self, served):
        _, client = served
        with pytest.raises(ProtocolError):
            client.call("register_graph", name="x", edges=[[True, False]])
        client.register_graph("g", Graph(6, TRIANGLES))
        with pytest.raises(ProtocolError):
            client.call("solve", graph="g", k=True)
        with pytest.raises(ProtocolError):
            client.call("solve", graph="g", k=3, deadline=True)
        feed = client.feed_open("g", k=3)["feed"]
        with pytest.raises(ProtocolError):
            client.call("feed_push", feed=feed, updates=[["insert", True, 2]])

    def test_node_count_past_the_key_bound_is_invalid(self, served):
        # Once an INTERNAL "Unable to allocate 74.5 GiB" from the CSR build.
        server, _ = served
        envelope = server.handle_request({
            "id": 1, "op": "register_graph", "name": "huge", "edges": [],
            "n": 10**10,
        })
        assert envelope["error"]["code"] == "INVALID_ARGUMENT"
        assert "node count" in envelope["error"]["message"]

    def test_stats_shape(self, served):
        _, client = served
        client.register_graph("tiny", Graph(6, TRIANGLES))
        stats = client.stats()
        assert stats["graphs"] == ["tiny"]
        assert stats["pool"]["sessions"] == 1
        assert "queued" in stats["scheduler"]

    def test_shutdown_rejects_further_requests(self, served):
        _, client = served
        client.shutdown()
        with pytest.raises(InvalidParameterError):
            client.ping()


class TestCompute:
    def test_solve_matches_direct_session(self, served, social):
        _, client = served
        client.register_graph("social", social)
        for k, method in [(3, "lp"), (3, "gc"), (4, "lp"), (4, "hg")]:
            via_serve = client.solve("social", k, method)
            direct = Session(social).solve(k, method)
            assert via_serve["cliques"] == [
                list(c) for c in direct.sorted_cliques()
            ], f"serving diverged from direct solve for {method} k={k}"
            assert via_serve["size"] == direct.size

    def test_solve_options_forwarded(self, served, social):
        _, client = served
        client.register_graph("social", social)
        res = client.solve("social", 3, "gc", options={"max_cliques": 10**6})
        assert res["method"] == "gc"
        with pytest.raises(OutOfMemoryError, match="budget of 1"):
            client.solve("social", 3, "gc", options={"max_cliques": 1})

    def test_solve_unknown_option_rejected_at_admission(self, served, social):
        _, client = served
        client.register_graph("social", social)
        with pytest.raises(InvalidParameterError, match="valid options"):
            client.solve("social", 3, "lp", options={"time_budgt": 1})

    def test_solve_backend_option_rejected_at_admission(self, served, social):
        """The static clique engine has no knob: ``backend`` is an
        unknown option for every method."""
        _, client = served
        client.register_graph("social", social)
        for method in ("lp", "l", "gc"):
            with pytest.raises(InvalidParameterError, match="unknown option 'backend'"):
                client.solve("social", 3, method, options={"backend": "csr"})

    @pytest.mark.parametrize("options", [[1], [["time_budget", 5]], "lp", 0, False])
    def test_solve_options_must_be_an_object(self, served, social, options):
        """A list of pairs is not converted, a falsy non-object is not
        taken for "no options", and neither surfaces as ``INTERNAL``."""
        _, client = served
        client.register_graph("social", social)
        with pytest.raises(ProtocolError, match="'options' must be a JSON object"):
            client.solve("social", 3, options=options)

    def test_solve_null_options_mean_no_options(self, served, social):
        server, client = served
        client.register_graph("social", social)
        line = '{"id":1,"op":"solve","graph":"social","k":3,"options":null}'
        envelope = server.handle_request(decode_request(line))
        assert envelope["ok"]
        assert envelope["result"] == client.solve("social", 3)

    def test_include_cliques_false_trims_payload(self, served, social):
        _, client = served
        client.register_graph("social", social)
        res = client.solve("social", 3, include_cliques=False)
        assert "cliques" not in res and res["size"] > 0

    def test_count_and_bounds_match_direct(self, served, social):
        _, client = served
        client.register_graph("social", social)
        session = Session(social)
        assert client.count("social", 3)["count"] == session.prep.clique_count(3)
        served_bounds = client.bounds("social", 3)
        direct = optimum_upper_bounds(social, 3)
        assert served_bounds["best"] == direct.best
        assert served_bounds["count_bound"] == direct.count_bound

    def test_warm_prefills_the_pooled_session(self, served, social):
        server, client = served
        client.register_graph("social", social)
        cache = client.warm("social", [3, 4])["cache"]
        assert cache["ks_with_scores"] == [3, 4] or cache["ks_with_scores"] == (3, 4)
        # A later solve through the pool is a pure cache hit.
        session = server.pool.get(social)
        passes = session.cache_info()["score_passes"]
        client.solve("social", 3)
        assert session.cache_info()["score_passes"] == passes

    def test_unknown_graph_typed_error(self, served):
        _, client = served
        with pytest.raises(UnknownGraphError):
            client.solve("ghost", 3)

    def test_deadline_rejected_for_unsafe_method(self, served, social):
        _, client = served
        client.register_graph("social", social)
        # gc is not resumable and has no time_budget option.
        with pytest.raises(InvalidParameterError, match="deadline"):
            client.solve("social", 3, "gc", deadline=5.0)

    def test_deadline_accepted_for_budget_method(self, served):
        _, client = served
        client.register_graph("tiny", Graph(6, TRIANGLES))
        res = client.solve("tiny", 3, "opt", deadline=60.0)
        assert res["size"] == 2  # exact optimum on two disjoint triangles

    def test_priority_and_deadline_fields_validated(self, served, social):
        _, client = served
        client.register_graph("social", social)
        with pytest.raises(InvalidParameterError):
            client.solve("social", 3, priority="urgent")
        # One code for every deadline that is not positive, finite
        # seconds. ``json`` reads ``NaN`` and ``Infinity``: NaN and +inf
        # once ran as if no deadline were given, and an int past the
        # float range answered INTERNAL.
        for deadline in (float("nan"), float("inf"), float("-inf"), 10**400, -1, 0):
            for op in ("solve", "count"):
                with pytest.raises(InvalidParameterError, match="positive, finite seconds"):
                    client.call(op, graph="social", k=3, deadline=deadline)

    def test_overload_surfaces_as_typed_error(self, social):
        server = Server(workers=1, queue_limit=1)
        client = Client(server)
        client.register_graph("social", social)
        release = threading.Event()
        started = threading.Event()

        def gate(remaining):
            started.set()
            release.wait(10)
            return {}

        server.scheduler.submit(gate)
        started.wait(5)
        client.start("solve", graph="social", k=3)  # fills the queue
        with pytest.raises(OverloadedError):
            client.solve("social", 3)
        release.set()
        server.close()


class TestFeeds:
    def test_feed_tracks_direct_maintainer(self, served, social):
        _, client = served
        client.register_graph("social", social)
        feed = client.feed_open("social", k=3, policy={"max_updates": 4})["feed"]

        updates = [("delete", u, v) for u, v in sorted(social.edges())[:10]]
        client.feed_push(feed, updates)
        served_solution = client.feed_solution(feed)

        # Mirror the feed's exact trajectory: same lp-seeded maintainer,
        # same 4/4/2 batch chunking (two size-triggered flushes, then
        # the flush-consistent read drains the remaining two updates).
        mirror = DynamicDisjointCliques(social, 3)
        for chunk_start in range(0, len(updates), 4):
            mirror.apply_batch(updates[chunk_start : chunk_start + 4])
        assert served_solution["size"] == mirror.size
        assert served_solution["cliques"] == [
            list(c) for c in mirror.solution().sorted_cliques()
        ]

        # Both describe the same final graph; invariants hold via the
        # maintainer's own checks.
        info = client.call("stats")["feeds"][feed]
        assert info["graph_m"] == social.m - 10

    def test_push_buffers_below_threshold(self, served, social):
        _, client = served
        client.register_graph("social", social)
        feed = client.feed_open("social", k=3, policy={"max_updates": 100})["feed"]
        res = client.feed_push(feed, [("delete", *sorted(social.edges())[0])])
        assert res["flushed"] is False and res["pending"] == 1
        flush = client.feed_flush(feed)
        assert flush["flushed"] is True and flush["applied"] == 1

    def test_size_trigger_flushes(self, served, social):
        _, client = served
        client.register_graph("social", social)
        feed = client.feed_open("social", k=3, policy={"max_updates": 2})["feed"]
        res = client.feed_push(
            feed, [("delete", *e) for e in sorted(social.edges())[:4]]
        )
        assert res["flushed"] is True and res["pending"] == 0

    def test_solution_is_flush_consistent(self, served, social):
        _, client = served
        client.register_graph("social", social)
        feed = client.feed_open("social", k=3)["feed"]
        edge = sorted(social.edges())[0]
        client.feed_push(feed, [("delete", *edge)])
        client.feed_solution(feed)  # must apply the pending delete first
        info = client.call("stats")["feeds"][feed]
        assert info["pending"] == 0 and info["graph_m"] == social.m - 1

    def test_feed_close_and_unknown_feed(self, served, social):
        _, client = served
        client.register_graph("social", social)
        feed = client.feed_open("social", k=3)["feed"]
        assert client.feed_close(feed)["closed"]
        with pytest.raises(UnknownFeedError):
            client.feed_push(feed, [("insert", 0, 1)])

    def test_invalid_flush_policy_rejected_at_open(self, served, social):
        _, client = served
        client.register_graph("social", social)
        # A NaN max_updates once opened a feed that never flushed by
        # count and put a bare NaN into every later stats line; 2.5
        # failed as a slice bound (INTERNAL) on the push that reached it.
        nan, inf = float("nan"), float("inf")
        for policy in (
            {"max_updates": 0}, {"max_updates": nan}, {"max_updates": inf},
            {"max_updates": 2.5}, {"max_updates": True}, {"max_age": nan}, {"max_age": inf},
        ):
            with pytest.raises(InvalidParameterError):
                client.feed_open("social", k=3, policy=policy)
        with pytest.raises(ProtocolError):
            client.feed_open("social", k=3, policy={"flush_every": 5})
        assert client.call("stats")["feeds"] == {}

    def test_flush_policy_backend_rejected_at_open(self, served, social):
        """Dynamic repair picks its engine by region size, so a policy
        naming one is malformed; the feed is never opened."""
        _, client = served
        client.register_graph("social", social)
        for engine in ("auto", "sets", "csr"):
            with pytest.raises(ProtocolError, match="backend"):
                client.feed_open("social", k=3, policy={"backend": engine})
        assert client.call("stats")["feeds"] == {}
        opened = client.feed_open("social", k=3, policy={"max_updates": 8})
        feeds = client.call("stats")["feeds"]
        assert feeds[opened["feed"]]["policy"] == {"max_updates": 8, "max_age": None}

    def test_duplicate_feed_id_rejected(self, served, social):
        _, client = served
        client.register_graph("social", social)
        client.feed_open("social", k=3, feed="mine")
        with pytest.raises(InvalidParameterError):
            client.feed_open("social", k=3, feed="mine")

    def test_bad_update_shape_rejected_before_buffering(self, served, social):
        _, client = served
        client.register_graph("social", social)
        feed = client.feed_open("social", k=3)["feed"]
        with pytest.raises(ProtocolError):
            client.call("feed_push", feed=feed, updates=[["insert", 1]])
        with pytest.raises(InvalidParameterError):
            client.call("feed_push", feed=feed, updates=[["upsert", 0, 1]])
        assert client.call("stats")["feeds"][feed]["pending"] == 0

    def test_malformed_update_cannot_poison_the_buffer(self, served, social):
        _, client = served
        client.register_graph("social", social)
        feed = client.feed_open("social", k=3)["feed"]
        # Valid updates buffer; a later push with an out-of-range node
        # or self-loop is rejected whole (GraphError server-side, which
        # travels as INVALID_ARGUMENT), leaving the valid pending
        # updates intact and applicable.
        good = [("delete", *e) for e in sorted(social.edges())[:3]]
        client.feed_push(feed, good)
        with pytest.raises(InvalidParameterError):
            client.feed_push(feed, [("insert", 0, social.n + 5)])
        with pytest.raises(InvalidParameterError):
            client.feed_push(feed, [("insert", 7, 7)])
        info = client.call("stats")["feeds"][feed]
        assert info["pending"] == 3  # the poison never entered
        flush = client.feed_flush(feed)
        assert flush["flushed"] and flush["applied"] == 3
        assert client.call("stats")["sweep_errors"] == 0


class TestProtocolModule:
    def test_decode_rejects_malformed(self):
        with pytest.raises(ProtocolError):
            decode_request("not json")
        with pytest.raises(ProtocolError):
            decode_request("[1, 2]")
        with pytest.raises(ProtocolError):
            decode_request('{"no": "op"}')
        with pytest.raises(ProtocolError):
            decode_request('{"op": "frobnicate"}')
        with pytest.raises(ProtocolError):
            decode_request('{"op": "ping", "id": [1]}')
        # json raises ValueError and RecursionError here, not
        # JSONDecodeError; either one used to stop ``repro serve``.
        with pytest.raises(ProtocolError):
            decode_request('{"op": "ping", "x": 1' + "0" * 5000 + "}")
        with pytest.raises(ProtocolError):
            decode_request('{"op": "ping", "x": ' + "[" * 100000 + "]" * 100000 + "}")

    def test_encode_decode_roundtrip(self):
        message = {"op": "solve", "id": 7, "graph": "g", "k": 3}
        assert decode_request(encode(message)) == message

    def test_error_codes_cover_the_serve_errors(self):
        assert error_code_for(OverloadedError("x")) == "OVERLOADED"
        assert error_code_for(UnknownGraphError("x")) == "UNKNOWN_GRAPH"
        assert error_code_for(RuntimeError("x")) == "INTERNAL"
        envelope = error_response(3, OverloadedError("busy"))
        assert envelope == {
            "id": 3,
            "ok": False,
            "error": {"code": "OVERLOADED", "message": "busy"},
        }

    def test_operations_are_documented_in_serving_md(self):
        from pathlib import Path

        doc = (
            Path(__file__).resolve().parent.parent / "docs" / "serving.md"
        ).read_text(encoding="utf-8")
        for op in OPERATIONS:
            assert f"`{op}`" in doc, f"docs/serving.md is missing op {op}"
