"""The serving engine: protocol dispatch over a pool and a scheduler.

:class:`Server` is transport-agnostic: :meth:`Server.handle_request`
takes one decoded protocol message and returns one response envelope
(the in-process :class:`~repro.serve.client.Client` calls it directly),
while :meth:`Server.serve_stdio` runs the newline-delimited-JSON loop
behind ``python -m repro serve``.

Request classes and where they run:

* **compute** (``solve`` / ``count`` / ``bounds`` / ``warm``) —
  submitted to the :class:`~repro.serve.scheduler.Scheduler` with the
  request's priority lane and deadline; the worker resolves the
  tenant's warm session from the
  :class:`~repro.serve.pool.SessionPool` and runs there. Responses
  stream back in completion order.
* **feed traffic** (``feed_open`` / ``feed_push`` / ``feed_flush`` /
  ``feed_solution`` / ``feed_close``) — handled inline on the
  transport thread. Feed operations are order-sensitive per tenant
  (a pipelined NDJSON client sends ``feed_open`` and its pushes
  back-to-back without waiting for responses), so the whole feed
  lifecycle runs inline to preserve submission order; the
  buffered-flush design keeps the common push cheap.
* **admin** (``ping`` / ``register_graph`` / ``unregister_graph`` /
  ``stats`` / ``shutdown``) — inline; these are cheap and
  latency-sensitive.

Deadline admission uses the registry's derived capabilities: a
``solve`` deadline is only accepted for methods whose
:attr:`~repro.core.registry.Method.can_meet_deadline` holds. The other
compute ops (``count``/``bounds``/``warm``) also take deadlines, but
those are *queue-time only*: an expired request is shed before a worker
starts it, while a request that has started runs to completion (their
enumeration passes have no cooperative interruption hook).

**Solves: one path per kind of method.** Methods with a resumable
engine (:attr:`~repro.core.registry.Method.resumable` — ``hg``/``l``/
``lp``/``opt-bb``) always run as :class:`repro.core.task.SolveTask`
objects wrapped in a scheduler
:class:`~repro.serve.scheduler.Resumable`, so the scheduler timeslices
them across priority lanes, a deadline expiry or a spent
``time_budget`` resolves with the best-so-far solution attached to the
error envelope (``error.partial: true`` + a ``result`` payload), and a
request with ``"progress": true`` streams ``progress`` events while the
solve improves. The monolithic ``gc`` and ``opt`` run as one blocking
call; ``opt`` gets the remaining deadline as its ``time_budget``.
Driving a task to completion is what ``Session.solve`` does too, so
results are transport-invariant.

A repeat of a completed solve (same graph, ``k``, method and options)
is answered on the worker from the session's result memo
(:meth:`repro.core.session.Session.recall`) without opening a task, so
it skips engine init, the drain, timeslicing and preemption; with
``"progress": true`` it sends one final ``done`` event.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path
from typing import Callable, TextIO

from repro.concurrency import make_lock, make_rlock
from repro.core.registry import REGISTRY, SolverRegistry
from repro.core.result import CliqueSetResult
from repro.core.task import TaskSnapshot
from repro.errors import (
    InvalidParameterError,
    ProtocolError,
    UnknownFeedError,
    UnknownGraphError,
)
from repro.graph.graph import Graph
from repro.serve import protocol
from repro.serve.feeds import DynamicFeed, FlushPolicy, FlushReport
from repro.graph.fingerprint import graph_fingerprint
from repro.errors import OutOfTimeError
from repro.serve.pool import SessionPool
from repro.serve.scheduler import Resumable, Scheduler, Ticket


def _result_payload(result: CliqueSetResult, include_cliques: bool) -> dict:
    """Serialise a :class:`CliqueSetResult` for the wire."""
    payload = {
        "size": result.size,
        "k": result.k,
        "method": result.method,
        "covered": len(result.covered_nodes),
    }
    if include_cliques:
        payload["cliques"] = [list(c) for c in result.sorted_cliques()]
    return payload


def _flush_payload(report: FlushReport | None) -> dict:
    if report is None:
        return {"flushed": False}
    return {
        "flushed": True,
        "applied": report.applied,
        "size": report.solution_size,
        "pending": report.pending,
    }


class Server:
    """A multi-tenant serving engine (one per process).

    Parameters
    ----------
    workers:
        Scheduler worker threads for compute requests.
    queue_limit:
        Bounded-queue admission limit (see :class:`Scheduler`).
    max_sessions / max_bytes:
        Session-pool budgets (see :class:`SessionPool`).
    quantum:
        Scheduler timeslice for resumable solves in seconds (positive;
        see :class:`Scheduler`).
    registry:
        Solver registry used for method lookup and new sessions.
    clock:
        Monotonic time source shared with feeds (injectable in tests).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        queue_limit: int = 64,
        max_sessions: int | None = None,
        max_bytes: int | None = None,
        quantum: float = 0.05,
        registry: SolverRegistry = REGISTRY,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry
        self.pool = SessionPool(
            max_sessions=max_sessions, max_bytes=max_bytes, registry=registry
        )
        self.scheduler = Scheduler(workers, queue_limit=queue_limit, quantum=quantum)
        self._clock = clock
        self._lock = make_rlock("Server._lock")
        self._graphs: dict[str, tuple[Graph, str]] = {}
        self._feeds: dict[str, DynamicFeed] = {}
        self._feed_ids = itertools.count(1)
        self._sweep_errors = 0
        self._shutting_down = False

    # ------------------------------------------------------------------
    # Tenant graph registry
    # ------------------------------------------------------------------
    def register_graph(self, name: str, graph: Graph) -> dict:
        """Register ``graph`` under ``name`` and admit its session to the pool.

        Re-registering a name replaces its graph (the old session stays
        pooled until evicted — another tenant may still be keyed to it).
        """
        fingerprint = graph_fingerprint(graph)
        with self._lock:
            self._graphs[name] = (graph, fingerprint)
        self.pool.get(graph, fingerprint=fingerprint)
        return {
            "name": name,
            "fingerprint": fingerprint,
            "n": graph.n,
            "m": graph.m,
        }

    def unregister_graph(self, name: str) -> dict:
        """Drop a tenant graph; evict its session if no other name shares it.

        This is how a long-lived server actually frees tenant memory:
        the pool's byte budget bounds *substrate caches*, but the raw
        registered graphs are pinned until unregistered. Open feeds are
        unaffected (each owns a private dynamic copy).
        """
        with self._lock:
            entry = self._graphs.pop(name, None)
            still_shared = entry is not None and any(
                fp == entry[1] for _, fp in self._graphs.values()
            )
        if entry is None:
            raise UnknownGraphError(f"graph {name!r} is not registered")
        evicted = False
        if not still_shared:
            evicted = self.pool.evict(entry[1])
        return {"name": name, "unregistered": True, "session_evicted": evicted}

    def _resolve_graph(self, message: dict) -> tuple[Graph, str]:
        name = protocol.require(message, "graph", str, "a registered graph name")
        with self._lock:
            entry = self._graphs.get(name)
        if entry is None:
            raise UnknownGraphError(
                f"graph {name!r} is not registered; send register_graph first"
            )
        return entry

    def _resolve_feed(self, message: dict) -> tuple[str, DynamicFeed]:
        feed_id = protocol.require(message, "feed", str, "an open feed id")
        with self._lock:
            feed = self._feeds.get(feed_id)
        if feed is None:
            raise UnknownFeedError(f"feed {feed_id!r} is not open")
        return feed_id, feed

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def handle_request(self, message: dict, emit: Callable | None = None) -> dict:
        """Process one decoded request synchronously; never raises.

        Compute requests block until their scheduler ticket resolves —
        the transport that wants streaming should use
        :meth:`submit_request` instead. ``emit`` optionally receives
        interim ``progress`` event envelopes (see
        :func:`repro.serve.protocol.progress_event`).
        """
        request_id = message.get("id")
        try:
            handled = self.submit_request(message, emit)
        except Exception as exc:  # noqa: BLE001 - becomes the error envelope
            return protocol.error_response(request_id, exc)
        if isinstance(handled, Ticket):
            try:
                return protocol.ok_response(request_id, handled.result())
            except Exception as exc:  # noqa: BLE001
                return protocol.error_response(request_id, exc)
        return protocol.ok_response(request_id, handled)

    def submit_request(
        self, message: dict, emit: Callable | None = None
    ) -> dict | Ticket:
        """Dispatch one request; inline ops return a result dict, compute
        ops return the scheduler :class:`Ticket` resolving to one.

        Raises on admission errors (overload, unknown op/graph/feed,
        invalid fields); the caller maps those to error envelopes.
        ``emit`` is the transport's sink for streamed ``progress``
        events (called from worker threads; must be thread-safe).
        """
        op = message.get("op")
        if op not in protocol.OPERATIONS:
            raise ProtocolError(
                f"unknown op {op!r}; expected one of {', '.join(protocol.OPERATIONS)}"
            )
        if self._shutting_down and op != "stats":
            raise InvalidParameterError("server is shutting down")
        return getattr(self, f"_op_{op}")(message, emit)

    def _submit_compute(
        self, message: dict, fn: Callable[[float | None], dict]
    ) -> Ticket:
        deadline = message.get("deadline")
        if deadline is not None and not protocol.is_number(deadline):
            raise ProtocolError("'deadline' must be a number of seconds")
        # Priority validation happens in Scheduler.submit (synchronously,
        # with the same typed error) — no second copy here to drift.
        return self.scheduler.submit(
            fn, priority=message.get("priority", "normal"), deadline=deadline
        )

    # -- admin ---------------------------------------------------------
    def _op_ping(self, message: dict, emit: Callable | None = None) -> dict:
        return {"pong": True}

    def _op_stats(self, message: dict, emit: Callable | None = None) -> dict:
        # Snapshot under the lock, query outside it: feed.info() waits on
        # that feed's lock (a flush may be in progress), and holding the
        # server lock through that would stall every other request.
        with self._lock:
            # Feed-registration order keys a JSON object whose consumers
            # look up by feed id; key order is not part of the protocol.
            feed_items = list(self._feeds.items())  # repro-lint: ignore=iterorder
            graphs = sorted(self._graphs)
        feeds = {feed_id: feed.info() for feed_id, feed in feed_items}
        return {
            "pool": self.pool.info(),
            "scheduler": self.scheduler.info(),
            "graphs": graphs,
            "feeds": feeds,
            "sweep_errors": self._sweep_errors,
        }

    def _op_shutdown(self, message: dict, emit: Callable | None = None) -> dict:
        with self._lock:
            self._shutting_down = True
        return {"shutting_down": True}

    def _op_register_graph(self, message: dict, emit: Callable | None = None) -> dict:
        name = protocol.require(message, "name", str, "a graph name")
        sources = [key for key in ("edges", "dataset", "path") if key in message]
        if len(sources) != 1:
            raise ProtocolError(
                "register_graph requires exactly one of 'edges', 'dataset' "
                f"or 'path', got {sources or 'none'}"
            )
        if "edges" in message:
            edges = message["edges"]
            if not isinstance(edges, list):
                raise ProtocolError("'edges' must be a list of [u, v] pairs")
            pairs = []
            for entry in edges:
                if (
                    not isinstance(entry, (list, tuple))
                    or len(entry) != 2
                    or not all(protocol.is_int(x) for x in entry)
                ):
                    raise ProtocolError(
                        f"each edge must be an [u, v] integer pair, got {entry!r}"
                    )
                pairs.append((entry[0], entry[1]))
            n = message.get("n")
            if n is not None and not protocol.is_int(n):
                raise ProtocolError("'n' must be an integer node count")
            graph = Graph.from_edges(pairs, n=n)
        elif "dataset" in message:
            from repro.graph import datasets

            graph = datasets.load(
                protocol.require(message, "dataset", str, "a dataset name")
            )
        else:
            from repro.graph.io import read_edge_list

            graph, _ = read_edge_list(
                Path(protocol.require(message, "path", str, "an edge-list path"))
            )
        return self.register_graph(name, graph)

    def _op_unregister_graph(self, message: dict, emit: Callable | None = None) -> dict:
        return self.unregister_graph(
            protocol.require(message, "name", str, "a registered graph name")
        )

    # -- compute -------------------------------------------------------
    def _op_solve(self, message: dict, emit: Callable | None = None) -> Ticket:
        graph, fingerprint = self._resolve_graph(message)
        k = protocol.require(message, "k", int, "an integer clique size")
        method = self.registry.get(message.get("method", "lp"))
        options = message.get("options")
        if options is not None and not isinstance(options, dict):
            raise ProtocolError("'options' must be a JSON object of method options")
        options = dict(options or {})
        method.parse_options(options)  # validate at admission, not on a worker
        include_cliques = bool(message.get("include_cliques", True))
        want_progress = bool(message.get("progress", False))
        if message.get("deadline") is not None and not method.can_meet_deadline:
            raise InvalidParameterError(
                f"method {method.tag!r} cannot honour a deadline (no "
                "resumable engine and no time_budget option); drop the "
                "deadline or pick a deadline-capable method"
            )
        request_id = message.get("id")

        def report(snapshot: TaskSnapshot) -> None:
            emit(protocol.progress_event(request_id, {
                "size": snapshot.size,
                "bound": snapshot.bound,
                "work": snapshot.work,
                "done": snapshot.done,
            }))

        def run(remaining: float | None) -> dict | Resumable:
            session = self.pool.get(graph, fingerprint=fingerprint)
            if not method.resumable:
                opts = dict(options)
                if remaining is not None and method.supports_time_budget:
                    opts.setdefault("time_budget", remaining)
                result = session.solve(k, method.tag, **opts)
                return _result_payload(result, include_cliques)

            memoized = session.recall(k, method.tag, **options)
            if memoized is not None:
                # A repeat of a completed solve: no task, no work.
                if want_progress and emit is not None:
                    size = memoized.size
                    report(TaskSnapshot("done", 0, size, size, True))
                return _result_payload(memoized, include_cliques)
            task = session.task(k, method.tag, **options)
            if want_progress and emit is not None:
                task.on_progress(report)

            def partial() -> dict:
                return {
                    **_result_payload(task.best(), include_cliques),
                    "partial": True,
                    "bound": task.bound(),
                    "work": task.work,
                }

            def step(seconds: float) -> bool:
                try:
                    return task.step(max_seconds=seconds).done
                except OutOfTimeError as exc:
                    # A spent time_budget answers like a deadline harvest.
                    exc.partial = partial()
                    raise

            def final() -> dict:
                return _result_payload(task.result(), include_cliques)

            return Resumable(step, final, partial)

        return self._submit_compute(message, run)

    def _op_count(self, message: dict, emit: Callable | None = None) -> Ticket:
        graph, fingerprint = self._resolve_graph(message)
        k = protocol.require(message, "k", int, "an integer clique size")

        def run(remaining: float | None) -> dict:
            session = self.pool.get(graph, fingerprint=fingerprint)
            return {"k": k, "count": session.prep.clique_count(k)}

        return self._submit_compute(message, run)

    def _op_bounds(self, message: dict, emit: Callable | None = None) -> Ticket:
        graph, fingerprint = self._resolve_graph(message)
        k = protocol.require(message, "k", int, "an integer clique size")

        def run(remaining: float | None) -> dict:
            bounds = self.pool.get(graph, fingerprint=fingerprint).prep.bounds(k)
            return {
                "k": k,
                "node_bound": bounds.node_bound,
                "count_bound": bounds.count_bound,
                "component_bound": bounds.component_bound,
                "best": bounds.best,
            }

        return self._submit_compute(message, run)

    def _op_warm(self, message: dict, emit: Callable | None = None) -> Ticket:
        graph, fingerprint = self._resolve_graph(message)
        ks = protocol.require(message, "ks", list, "a list of integer k values")
        if not all(protocol.is_int(k) for k in ks):
            raise ProtocolError("'ks' must be a list of integers")
        cliques = bool(message.get("cliques", False))

        def run(remaining: float | None) -> dict:
            session = self.pool.get(graph, fingerprint=fingerprint)
            session.warm(ks, cliques=cliques)
            return {"warmed": list(ks), "cache": session.cache_info()}

        return self._submit_compute(message, run)

    # -- feed traffic (inline, order-preserving) -----------------------
    def _op_feed_open(self, message: dict, emit: Callable | None = None) -> dict:
        graph, fingerprint = self._resolve_graph(message)
        k = protocol.require(message, "k", int, "an integer clique size")
        method = self.registry.get(message.get("method", "lp")).tag
        policy_spec = message.get("policy") or {}
        if not isinstance(policy_spec, dict):
            raise ProtocolError("'policy' must be an object")
        try:
            policy = FlushPolicy(**policy_spec)
        except TypeError as exc:
            raise ProtocolError(f"bad flush policy: {exc}") from None
        requested_id = message.get("feed")
        if requested_id is not None and not isinstance(requested_id, str):
            raise ProtocolError("'feed' must be a string id")
        with self._lock:
            feed_id = requested_id or f"feed-{next(self._feed_ids)}"
            if feed_id in self._feeds:
                raise InvalidParameterError(f"feed {feed_id!r} is already open")
        # The initial solve runs inline: a pipelined client may push
        # into this feed on its very next line, so the open must be
        # complete before the transport reads on. The pooled session
        # keeps it cheap when the tenant's substrates are warm.
        session = self.pool.get(graph, fingerprint=fingerprint)
        feed = DynamicFeed(
            session, k, method=method, policy=policy, clock=self._clock
        )
        with self._lock:
            if feed_id in self._feeds:
                raise InvalidParameterError(f"feed {feed_id!r} is already open")
            self._feeds[feed_id] = feed
        return {"feed": feed_id, "k": k, "size": feed.maintainer.size}

    @staticmethod
    def _parse_updates(message: dict) -> list[tuple[str, int, int]]:
        raw = protocol.require(
            message, "updates", list, "a list of [op, u, v] triples"
        )
        updates = []
        for entry in raw:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 3
                or not isinstance(entry[0], str)
                or not all(protocol.is_int(x) for x in entry[1:])
            ):
                raise ProtocolError(
                    f"each update must be an ['insert'|'delete', u, v] "
                    f"triple, got {entry!r}"
                )
            updates.append((entry[0], entry[1], entry[2]))
        return updates

    def _op_feed_push(self, message: dict, emit: Callable | None = None) -> dict:
        feed_id, feed = self._resolve_feed(message)
        report = feed.push(self._parse_updates(message))
        payload = {"feed": feed_id, **_flush_payload(report)}
        # One source of truth for "pending": the flush report when a
        # flush happened (exact state at end of this push), else a
        # fresh read.
        payload.setdefault("pending", feed.pending)
        return payload

    def _op_feed_flush(self, message: dict, emit: Callable | None = None) -> dict:
        feed_id, feed = self._resolve_feed(message)
        return {"feed": feed_id, **_flush_payload(feed.flush())}

    def _op_feed_solution(self, message: dict, emit: Callable | None = None) -> dict:
        feed_id, feed = self._resolve_feed(message)
        include_cliques = bool(message.get("include_cliques", True))
        result = feed.solution()
        return {"feed": feed_id, **_result_payload(result, include_cliques)}

    def _op_feed_close(self, message: dict, emit: Callable | None = None) -> dict:
        feed_id, feed = self._resolve_feed(message)
        # Final flush first: if it raises, the feed stays open (the
        # client sees the error and can retry or inspect), instead of
        # silently dropping buffered updates with the feed already gone.
        final_size = feed.size
        with self._lock:
            self._feeds.pop(feed_id, None)
        return {"feed": feed_id, "closed": True, "final_size": final_size}

    # ------------------------------------------------------------------
    # Maintenance & lifecycle
    # ------------------------------------------------------------------
    def sweep_feeds(self) -> int:
        """Age-flush every feed whose policy is due; returns flush count.

        The stdio loop calls this between requests so ``max_age``
        policies make progress even when a feed's tenant goes quiet.
        One feed's failure must never take the transport down with it
        (or starve the other feeds' sweeps), so per-feed exceptions are
        contained and counted.
        """
        with self._lock:
            # Sweep order is scheduling-only: each feed's flush is
            # independent and per-feed failures are contained below.
            feeds = list(self._feeds.values())  # repro-lint: ignore=iterorder
        flushed = 0
        for feed in feeds:
            try:
                if feed.maybe_flush() is not None:
                    flushed += 1
            except Exception:  # noqa: BLE001 - isolated per tenant
                with self._lock:
                    self._sweep_errors += 1
        return flushed

    def close(self) -> None:
        """Drain the scheduler and release workers (idempotent)."""
        with self._lock:
            self._shutting_down = True
        self.scheduler.shutdown(wait=True)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport: newline-delimited JSON over text streams
    # ------------------------------------------------------------------
    def serve_stdio(self, stdin: TextIO, stdout: TextIO) -> int:
        """Run the NDJSON request loop until ``shutdown`` or EOF.

        Inline ops respond immediately; compute ops respond when their
        ticket resolves, so responses can interleave out of request
        order (clients match on ``id``). A write lock keeps concurrent
        completions line-atomic. Returns 0 on clean shutdown.
        """
        write_lock = make_lock("serve_stdio.write_lock")
        inflight: list[Ticket] = []

        def write(envelope: dict) -> None:
            # Waived: serialising the write itself is this lock's whole
            # job — holding it across the I/O is what makes concurrent
            # ticket completions line-atomic on the shared stream.
            with write_lock:
                stdout.write(protocol.encode(envelope) + "\n")  # repro-lint: ignore=holdcalling
                stdout.flush()  # repro-lint: ignore=holdcalling

        for line in stdin:
            line = line.strip()
            if not line:
                continue
            try:
                message = protocol.decode_request(line)
            except ProtocolError as exc:
                write(protocol.error_response(None, exc))
                continue
            request_id = message.get("id")
            try:
                handled = self.submit_request(message, write)
            except Exception as exc:  # noqa: BLE001 - KeyboardInterrupt et al.
                # propagate so the operator can actually stop the server
                write(protocol.error_response(request_id, exc))
                continue
            if isinstance(handled, Ticket):
                inflight.append(handled)

                def respond(ticket: Ticket, request_id=request_id) -> None:
                    error = ticket.error()
                    if error is not None:
                        write(protocol.error_response(request_id, error))
                    else:
                        write(protocol.ok_response(request_id, ticket.result()))

                handled.add_done_callback(respond)
            else:
                write(protocol.ok_response(request_id, handled))
                if message["op"] == "shutdown":
                    break
            self.sweep_feeds()
            inflight = [t for t in inflight if not t.done]
        for ticket in inflight:
            ticket.error()  # wait; the done-callback writes the response
        # EOF without an explicit shutdown is a clean exit too, for
        # piped usage (`... | python -m repro serve`).
        self.close()
        return 0
