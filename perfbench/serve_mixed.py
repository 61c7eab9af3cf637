"""``serve_mixed``: an open-loop request mix against a warm in-process server.

Set-up starts a ``Server`` with one worker thread per CPU, registers a
big and a small tenant graph, solves the small one with every method at
every k and the big one at the k its requests use, so every substrate is
cached, and opens a feed on the small tenant. One thread then offers
requests at a fixed rate in segments of 10, each due ``i / RATE``
nominal seconds after its segment's start whether or not earlier ones
finished (independent clients make an open loop); between segments it
waits for the last response and reads the yardstick. A request is timed from when it was due until its response is
encoded the way ``serve_stdio`` writes it, so a stalled generator or a
queue that grows shows up in every later request. Feed operations run
inline on the request thread, as in ``serve_stdio``, so their flushes
block the loop.

Most requests are light: small-tenant solves, ``count``, ``bounds`` and
feed traffic. A tenth are big-tenant ``lp`` solves, which the scheduler
timeslices against the light requests. The offered rate sits below the
knee where queues start to grow: with two workers the latency tails
multiply between 14 and 17 requests per second, because worker threads
and the request thread share one interpreter lock.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time

import numpy as np

from repro import Graph, Session
from repro.dynamic.workload import make_workload
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import powerlaw_cluster
from repro.serve import Client, Server, protocol

from checks import solution_errors
from inputs import SHAPE_SEED, permutation, relabel, relabel_updates
from layers import CoreCounters, layer_metrics, solve_lp
from measure import (
    NOMINAL_REF_S, Outcome, Yardstick, freeze_heap, latency_metrics, mean, median, peak_rss_mb, ratio, tail,
    tail_ms, wall_record,
)
from spans import Tracer, maybe_span

#: (nodes, m_attach, triangle-closing p) of the two tenants' graphs.
BIG = (12000, 6, 0.8)
SMALL = (1500, 5, 0.7)
#: Offered requests per second: keeps the workers about two-thirds busy.
RATE = 10.0
WORKERS = len(os.sched_getaffinity(0))
KS = (3, 4, 5)
SMALL_METHODS = ("lp", "l", "hg")
FEED_K = 3
#: Updates carried by one feed_push request.
PUSH_SIZE = 16
#: One block of 30 requests: a big solve every tenth request and the
#: light kinds interleaved in a fixed order. The 18 small-solve slots of
#: a block cover every (method, k) pair twice, in an order that rotates
#: by one from block to block. Every seed thus offers the same requests
#: in the same order, and the tails do not depend on which small solves a
#: shuffle (or a seed-chosen rotation start) happened to put in the slots
#: that overlap big solves. Big solves all use one k, so their latencies
#: form one population and the tail does not sit between two. The 9
#: quick requests (feed traffic, count, bounds) are fewer than the small
#: solves, so the median falls inside the small solves' latencies rather
#: than on the edge between the two groups, where it jumped between them
#: from run to run.
BLOCK = (
    "big_solve", "small_solve", "feed_push", "small_solve", "small_solve",
    "count", "small_solve", "small_solve", "feed_push", "small_solve",
    "big_solve", "small_solve", "feed_push", "small_solve", "small_solve",
    "bounds", "small_solve", "small_solve", "feed_push", "small_solve",
    "big_solve", "small_solve", "count", "small_solve", "small_solve",
    "feed_flush", "small_solve", "small_solve", "feed_solution", "small_solve",
)
BIG_K = 4
SETUP_REPEATS = 3
DRAIN_TIMEOUT_S = 60.0
#: Requests offered between two yardstick readings: one big solve and
#: the light requests after it, a second of the schedule. Reading only
#: once per block (three seconds) followed the core's speed too loosely.
SEGMENT = 10
#: The yardstick is read only between segments (see ``open_loop``).
YARD_WINDOW_S = math.inf


def make_inputs(seed: int, seconds: float) -> tuple[dict, list[dict], list[list]]:
    """``(tenants, requests, push_chunks)`` for a pass of ``seconds``.

    The small tenant's graph is the start graph of a Section VI-E mixed
    stream; ``feed_push`` requests carry that stream in order. Graphs and
    stream are fixed; the seed renames their nodes and picks the k of
    each count and bounds request.
    """
    rng = np.random.default_rng(seed)
    shapes = np.random.default_rng(SHAPE_SEED)
    big = powerlaw_cluster(*BIG, seed=int(shapes.integers(2**31)))
    big = relabel(big, permutation(big.n, rng))
    base = powerlaw_cluster(*SMALL, seed=int(shapes.integers(2**31)))
    # Two blocks at least: every tail then has more than ten samples.
    blocks = max(2, math.ceil(RATE * seconds / len(BLOCK)))
    pairs = [(m, k) for m in SMALL_METHODS for k in KS]
    requests: list[dict] = []
    pushes = 0
    for block in range(blocks):
        start = block % len(pairs)
        small_solves = iter(2 * (pairs[start:] + pairs[:start]))
        for kind in BLOCK:
            if kind == "big_solve":
                request = {"op": "solve", "graph": "big", "k": BIG_K, "method": "lp"}
            elif kind == "small_solve":
                method, k = next(small_solves)
                request = {"op": "solve", "graph": "small", "k": k, "method": method}
            elif kind in ("count", "bounds"):
                request = {"op": kind, "graph": "small", "k": int(rng.choice(KS))}
            elif kind == "feed_push":
                request = {"op": kind, "chunk": pushes}
                pushes += 1
            else:
                request = {"op": kind}
            requests.append({"kind": kind, **request})
    count = max(1, math.ceil(pushes * PUSH_SIZE / 2))
    small, updates = make_workload(base, "mixed", count, seed=int(shapes.integers(2**31)))
    perm = permutation(small.n, rng)
    small, updates = relabel(small, perm), relabel_updates(updates, perm)
    chunks = [updates[i * PUSH_SIZE : (i + 1) * PUSH_SIZE] for i in range(pushes)]
    tenants = {"big": (big.n, list(big.edges())), "small": (small.n, list(small.edges()))}
    return tenants, requests, chunks


def setup(tenants: dict, tracer: Tracer | None = None, counters: CoreCounters | None = None) -> tuple[Server, Client, str, float]:
    """Start and warm a server; returns it, its client, the feed id and
    the seconds taken."""
    start = time.perf_counter()
    server = Server(workers=WORKERS)
    client = Client(server)
    for name, (n, edges) in tenants.items():
        with maybe_span(tracer, "graph.build", tenant=name):
            graph = Graph(n, edges)
        with maybe_span(tracer, "serve.register", tenant=name):
            info = server.register_graph(name, graph)
        session = server.pool.lookup(info["fingerprint"])
        for k in KS if name == "small" else (BIG_K,):
            solve_lp(session, k, tracer, counters)
        if name == "small":
            for k in KS:
                for method in SMALL_METHODS[1:]:
                    session.solve(k, method)
                session.prep.clique_count(k)
    with maybe_span(tracer, "serve.feed_open"):
        feed = client.feed_open("small", FEED_K)["feed"]
    return server, client, feed, time.perf_counter() - start


class Request:
    """One offered request and what happened to it (monotonic seconds).

    A compute request copies its scheduler ticket's timestamps when the
    ticket resolves and keeps no reference to it: a held ticket would
    keep its finished solve engine alive, which a server never does.
    """

    __slots__ = (
        "spec", "due", "issued", "done", "encode_s", "line", "error",
        "submitted", "started", "finished", "preemptions",
    )

    def __init__(self, spec: dict, due: float) -> None:
        self.spec = spec
        self.due = due
        self.issued = self.done = self.encode_s = self.line = self.error = None
        self.submitted = self.started = self.finished = self.preemptions = None

    @property
    def compute(self) -> bool:
        """Whether the request ran on a scheduler worker."""
        return self.submitted is not None

    @property
    def payload(self) -> dict | None:
        return json.loads(self.line).get("result")

    def respond(self, request_id: int, envelope: dict) -> None:
        """Encode the response as ``serve_stdio`` would; marks completion.

        The encoded line is kept (a string the collector never scans)
        and decoded by the checks after the run.
        """
        start = time.monotonic()
        self.line = protocol.encode(envelope)
        self.done = time.monotonic()
        self.encode_s = self.done - start

    def finish(self, request_id: int, ticket: object) -> None:
        """Scheduler done-callback for compute requests."""
        self.submitted, self.started = ticket.submitted_at, ticket.started_at
        self.finished, self.preemptions = ticket.finished_at, ticket.preemptions
        self.error = ticket.error()
        if self.error is not None:
            self.respond(request_id, protocol.error_response(request_id, self.error))
        else:
            self.respond(request_id, protocol.ok_response(request_id, ticket.result()))


def fields_for(spec: dict, feed: str, chunks: list[list]) -> dict:
    """Protocol fields of one request spec."""
    op = spec["op"]
    if op == "solve":
        return {"graph": spec["graph"], "k": spec["k"], "method": spec["method"], "include_cliques": True}
    if op in ("count", "bounds"):
        return {"graph": spec["graph"], "k": spec["k"]}
    if op == "feed_push":
        return {"feed": feed, "updates": [[o, u, v] for o, u, v in chunks[spec["chunk"]]]}
    if op == "feed_solution":
        return {"feed": feed, "include_cliques": True}
    return {"feed": feed}


def offer_block(client: Client, feed: str, specs: list[dict], chunks: list[list], gap_s: float) -> list[Request]:
    """Offer one block of requests ``gap_s`` apart and wait for every
    response."""
    t0 = time.monotonic() + 0.01
    offered = []
    for i, spec in enumerate(specs):
        request = Request(spec, t0 + i * gap_s)
        offered.append(request)
        delay = request.due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        request.issued = time.monotonic()
        try:
            call = client.start(spec["op"], **fields_for(spec, feed, chunks))
        except Exception as exc:  # noqa: BLE001 - a refused request is a failed op
            request.error = exc
            request.done = time.monotonic()
            continue
        if call.ticket is None:
            request.respond(call.id, protocol.ok_response(call.id, call.result()))
        else:
            call.ticket.add_done_callback(functools.partial(Request.finish, request, call.id))
    limit = time.monotonic() + DRAIN_TIMEOUT_S
    for request in offered:
        while request.done is None and time.monotonic() < limit:
            time.sleep(0.001)
        if request.done is None:
            request.error = TimeoutError(f"no response within {DRAIN_TIMEOUT_S}s")
            request.done = time.monotonic()
    return offered


def open_loop(client: Client, feed: str, requests: list[dict], chunks: list[list], yard: Yardstick) -> tuple[list[Request], list[float], float]:
    """Offer every request, :data:`SEGMENT` at a time; returns them, their
    latencies scaled to the nominal core, and the scaled seconds the
    segments took.

    The yardstick is read on this thread between segments, while the
    workers are idle, and the gap between requests is ``1 / RATE``
    nominal seconds: a core running slow stretches the schedule as much
    as the work, so every run offers the same load relative to the
    core's speed.
    """
    offered: list[Request] = []
    scaled: list[float] = []
    busy_s = 0.0
    for first in range(0, len(requests), SEGMENT):
        before = yard.last
        block = offer_block(client, feed, requests[first : first + SEGMENT], chunks, before / NOMINAL_REF_S / RATE)
        start = len(yard.scaled)
        for request in block:
            yard.add(request.done - request.due)
        yard.flush()
        scaled += yard.scaled[start:]
        busy_s += yard.scale(max(r.done for r in block) - block[0].due, before, yard.last)
        offered += block
    return offered, scaled, busy_s


def worker_cpu_s() -> float:
    """CPU seconds the scheduler's worker threads (named ``repro-serve-<i>``)
    have used so far."""
    return sum(
        time.clock_gettime(time.pthread_getcpuclockid(t.ident))
        for t in threading.enumerate()
        if t.name.startswith("repro-serve-")
    )


def run_pass(tenants: dict, requests: list[dict], chunks: list[list], yard: Yardstick, tracer: Tracer | None = None, counters: CoreCounters | None = None, setup_repeats: int = 1) -> dict:
    """Set up (``setup_repeats`` times, keeping the last server), offer
    the requests, then read the feed's final solution off the clock."""
    setup_s = []
    for _ in range(setup_repeats):
        if setup_s:
            server.close()
        before = yard.sample()
        server, client, feed, elapsed = setup(tenants, tracer, counters)
        setup_s.append(yard.scale(elapsed, before, yard.sample()))
    freeze_heap()
    try:
        pool_before = server.pool.info()
        cpu_before = worker_cpu_s()
        t0 = time.monotonic()
        offered, scaled, busy_s = open_loop(client, feed, requests, chunks, yard)
        worker_cpu = worker_cpu_s() - cpu_before
        wall = time.monotonic() - t0
        pool_after = server.pool.info()
        feed_final = client.feed_solution(feed)
    finally:
        server.close()
    hits = pool_after["hits"] - pool_before["hits"]
    lookups = hits + pool_after["misses"] - pool_before["misses"]
    return {
        "offered": offered, "scaled": scaled, "busy_s": busy_s, "feed_final": feed_final,
        "setup_s": setup_s, "pool_hit_ratio": ratio(hits, lookups),
        "worker_busy_ratio": worker_cpu / (WORKERS * wall),
    }


def check(tenants: dict, chunks: list[list], passes: list[dict]) -> tuple[list[str], dict]:
    """Served solves equal direct ``Session.solve`` results, which are
    valid and maximal; counts are exact; each feed's final solution is
    valid and maximal on the graph its pushes imply. Also returns each
    tenant's k-clique count per k."""
    errors: list[str] = []
    graphs = {name: Graph(n, edges) for name, (n, edges) in tenants.items()}
    sessions = {name: Session(graph) for name, graph in graphs.items()}
    expected: dict[tuple, list] = {}
    for run in passes:
        for i, request in enumerate(run["offered"]):
            spec = request.spec
            if request.error is not None or spec["op"] not in ("solve", "count"):
                continue
            name, k = spec["graph"], spec["k"]
            if spec["op"] == "count":
                if request.payload["count"] != sessions[name].prep.clique_count(k):
                    errors.append(f"request {i}: count differs from a direct count")
                continue
            key = (name, k, spec["method"])
            if key not in expected:
                direct = sessions[name].solve(k, spec["method"])
                errors += solution_errors(graphs[name], k, direct.cliques, f"direct solve {key}")
                expected[key] = [list(c) for c in direct.sorted_cliques()]
            if request.payload["cliques"] != expected[key]:
                errors.append(f"request {i}: served solve {key} differs from a direct solve")
        n, edges = tenants["small"]
        mirror = DynamicGraph(n, edges)
        for spec in (r.spec for r in run["offered"] if r.error is None):
            if spec["op"] == "feed_push":
                for op, u, v in chunks[spec["chunk"]]:
                    (mirror.insert_edge if op == "insert" else mirror.delete_edge)(u, v)
        errors += solution_errors(mirror, FEED_K, run["feed_final"]["cliques"], "feed final solution")
    kcliques = {name: {k: s.prep.clique_count(k) for k in KS} for name, s in sessions.items()}
    return errors, kcliques


def distinct_solve_sizes(offered: list[Request]) -> int:
    """Sum of |S| over the distinct (tenant, k, method) solves served."""
    sizes = {}
    for request in offered:
        spec = request.spec
        if spec["op"] == "solve" and request.error is None:
            sizes.setdefault((spec["graph"], spec["k"], spec["method"]), request.payload["size"])
    return sum(sizes.values())


def latencies(offered: list[Request]) -> list[float]:
    """Raw seconds from each request's due time to its response."""
    return [r.done - r.due for r in offered]


def serve_layer_metrics(run: dict, tracer: Tracer) -> dict:
    """Serve- and load-layer metrics of a traced pass; also records one
    span tree per request (sharing the request's index) from the
    scheduler's ticket timestamps."""
    offered = run["offered"]
    for i, request in enumerate(offered):
        tid = 100000 + i
        op = tracer.add("bench.op", request.due, request.done, tid=tid, request=i, kind=request.spec["kind"])
        if request.compute and request.started is not None:
            tracer.add("serve.queue", request.submitted, request.started, op, tid, request=i)
            tracer.add("serve.run", request.started, request.finished, op, tid, request=i)
        elif request.encode_s is not None:
            tracer.add("serve.inline", request.issued, request.done - request.encode_s, op, tid, request=i)
        if request.encode_s is not None:
            tracer.add("serve.encode", request.done - request.encode_s, request.done, op, tid, request=i)
    ran = [r for r in offered if r.compute and r.started is not None]
    waits = [r.started - r.submitted for r in ran]
    runs = [r.finished - r.started for r in ran]
    feed_ops = [r.done - r.issued for r in offered if r.spec["op"].startswith("feed_")]
    return {
        "serve.queue_wait_ms_p50": 1000.0 * median(waits),
        "serve.queue_wait_ms_tail": 1000.0 * tail(waits)[0],
        "serve.run_ms_p50": 1000.0 * median(runs),
        "serve.worker_busy_ratio": run["worker_busy_ratio"],
        "serve.preemptions": sum(r.preemptions for r in ran),
        "serve.encode_ms": 1000.0 * mean([r.encode_s for r in offered if r.encode_s is not None]),
        "serve.pool_hit_ratio": run["pool_hit_ratio"],
        "serve.feed_op_ms_tail": 1000.0 * tail(feed_ops)[0],
        "load.gen_lag_ms_tail": 1000.0 * tail([r.issued - r.due for r in offered])[0],
    }


def run(seed: int, seconds: float, trace: bool, import_s: float, yard: Yardstick) -> Outcome:
    pass_seconds = seconds / 2 if trace else seconds
    tenants, requests, chunks = make_inputs(seed, pass_seconds)
    freeze_heap()
    measured = run_pass(tenants, requests, chunks, yard, setup_repeats=1 if trace else SETUP_REPEATS)
    passes = [measured]
    if trace:
        tracer, counters = Tracer(clock=time.monotonic), CoreCounters()
        traced = run_pass(tenants, requests, chunks, yard, tracer, counters)
        passes.append(traced)
    errors, kcliques = check(tenants, chunks, passes)
    record: dict = {
        "inputs": [
            {"tenant": name, "n": n, "m": len(edges), "k": k, "kcliques": kcliques[name][k]}
            for name, (n, edges) in tenants.items() for k in KS
        ],
        "ops": len(requests),
        "rate_per_s": RATE,
        "workers": WORKERS,
        "wall": wall_record(latencies(measured["offered"]), yard),
    }
    failed = sum(r.error is not None for run in passes for r in run["offered"]) + len(errors)
    attempted = sum(len(run["offered"]) for run in passes)
    offered, scaled = measured["offered"], measured["scaled"]
    p50 = latency_metrics(scaled, record)
    light = [s for s, r in zip(scaled, offered) if r.spec["kind"] != "big_solve"]
    tail_ms(light, record, "light_op_tail_ms")
    if not trace:
        metrics = {
            "setup_s": import_s + median(measured["setup_s"]),
            "ops_per_s": sum(r.error is None for r in offered) / measured["busy_s"],
            **p50,
            "cliques_found": distinct_solve_sizes(offered),
            "peak_rss_mb": peak_rss_mb(),
        }
        return Outcome(attempted, failed, metrics, record, errors)

    metrics = {
        **layer_metrics(tracer, counters),
        **serve_layer_metrics(traced, tracer),
        "trace.overhead_ratio": sum(latencies(traced["offered"])) / sum(latencies(measured["offered"])) - 1.0,
        "bench.wall_op_p50_ms": record["wall"]["op_p50_ms"],
        "bench.op_tail_ms": record["op_tail_ms"]["value_ms"],
        "serve.light_op_tail_ms": record["light_op_tail_ms"]["value_ms"],
    }
    return Outcome(attempted, failed, metrics, record, errors, tracer)
