"""Concurrent solve scheduler: priority lanes, deadlines, preemption.

The :class:`Scheduler` owns a fixed pool of worker threads and three
FIFO lanes (``high`` / ``normal`` / ``low``). :meth:`Scheduler.submit`
is non-blocking and returns a :class:`Ticket`; the caller collects the
outcome via :meth:`Ticket.result` or a done-callback (the stdio server
uses callbacks so responses stream out as they finish, not in arrival
order).

Admission control and deadline semantics:

* **backpressure** — the queue is bounded; a submit that would exceed
  ``queue_limit`` pending tickets is *shed immediately* with
  :class:`~repro.errors.OverloadedError` instead of queueing without
  bound. Clients see the overload at once and can back off.
* **deadlines** — a ticket's ``deadline`` is a relative wall-clock
  budget. If it expires while the ticket is still queued *and the
  ticket carries no partial work*, it is shed at dequeue with
  :class:`~repro.errors.DeadlineExceededError` (cost: one queue pop —
  the worker never starts doomed work). Once a ticket starts, the
  remaining budget is handed to the task callable, which forwards it as
  ``time_budget`` to solvers that support cooperative interruption (see
  :attr:`repro.core.registry.Method.can_meet_deadline` for which
  methods accept deadlines at all).
* **cancellation** — :meth:`Ticket.cancel` wins if the ticket has not
  started (including a preempted ticket waiting to resume); it then
  resolves with :class:`~repro.errors.RequestCancelledError` without
  occupying a worker. A monolithic running ticket is not preempted
  (Python threads cannot be killed safely); ``cancel`` returns
  ``False``.

**Preemptive timeslicing** — a submitted callable may return a
:class:`Resumable` instead of a plain result: a step-driven runner
(usually wrapping a :class:`repro.core.task.SolveTask`). Workers then
run it one ``quantum`` at a time and, between slices,

* *finish* it when the runner reports done;
* *harvest* it when its deadline expired: the ticket resolves with
  :class:`~repro.errors.DeadlineExceededError` whose ``partial``
  attribute carries the runner's best-so-far payload — deadline expiry
  returns the completed work instead of raising it away;
* *preempt* it when work is queued in its own or a higher lane: the
  ticket re-enters the back of its lane (round-robin within a lane,
  strict priority across lanes) and the worker picks up the waiting
  request. This is true preemption instead of PR 4's shed-at-dequeue:
  with a single worker, an interactive high-lane burst runs within one
  quantum even while a long normal-lane solve is in flight.

Worker counts: on multi-core machines ``workers=N`` overlaps the
numpy-heavy substrate passes; on a single core mixed traffic still pays
off twice — GIL timeslices across threads plus quantum timeslices
within a worker — which the serving benchmarks measure as deadline
goodput.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import deque
from typing import Callable

from repro.concurrency import make_lock, make_rlock
from repro.errors import (
    InvalidParameterError,
    OutOfTimeError,
    OverloadedError,
    RequestCancelledError,
)
from repro.errors import DeadlineExceededError

#: Lane names in dispatch order: workers always drain ``high`` first.
PRIORITIES = ("high", "normal", "low")


class Resumable:
    """A step-driven runner a submitted callable can return.

    Returning one from the submitted ``fn`` opts the ticket into
    preemptive timeslicing (see the module docstring). The three
    callables are invoked from worker threads, never concurrently for
    one runner:

    ``step(seconds)``
        Run up to ``seconds`` of work and return ``True`` when
        finished.
    ``result()``
        The final payload once ``step`` returned ``True``.
    ``partial()``
        Best-so-far payload for deadline harvesting (may return
        ``None`` when no partial result exists; the deadline error then
        carries nothing extra).
    """

    __slots__ = ("step", "result", "partial")

    def __init__(
        self,
        step: Callable[[float], bool],
        result: Callable[[], object],
        partial: Callable[[], object] | None = None,
    ) -> None:
        self.step = step
        self.result = result
        self.partial = partial if partial is not None else lambda: None


class Ticket:
    """Handle for one submitted request (create via :meth:`Scheduler.submit`).

    States move ``queued -> running -> done``, or jump straight to
    ``done`` when the ticket is cancelled or shed. ``done`` tickets hold
    either a result or an exception; :meth:`result` re-raises the
    latter.
    """

    __slots__ = (
        "id",
        "priority",
        "deadline_at",
        "submitted_at",
        "started_at",
        "finished_at",
        "state",
        "_fn",
        "_event",
        "_value",
        "_error",
        "_callbacks",
        "_lock",
        "_scheduler",
        "_runner",
        "preemptions",
    )

    def __init__(
        self,
        ticket_id: int,
        fn: Callable[[float | None], object],
        priority: str,
        deadline_at: float | None,
        now: float,
    ) -> None:
        self.id = ticket_id
        self.priority = priority
        self.deadline_at = deadline_at
        self.submitted_at = now
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.state = "queued"
        self._fn = fn
        self._event = threading.Event()
        self._value: object = None
        self._error: BaseException | None = None
        self._callbacks: list[Callable[["Ticket"], None]] = []
        self._lock = make_lock("Ticket._lock")
        self._scheduler: "Scheduler | None" = None
        self._runner: "Resumable | None" = None
        #: Times this ticket was timesliced out for other work.
        self.preemptions = 0

    # -- outcome -------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the ticket has resolved (result, error, cancel or shed)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> object:
        """Block for the outcome; re-raise the ticket's error if it failed.

        Raises :class:`TimeoutError` if the outcome does not arrive
        within ``timeout`` seconds (the ticket itself keeps running).
        """
        if not self._event.wait(timeout):
            raise TimeoutError(f"ticket {self.id} not done after {timeout}s")
        if self._error is not None:
            raise self._error
        return self._value

    def error(self) -> BaseException | None:
        """The stored exception of a resolved ticket (``None`` on success)."""
        self._event.wait()
        return self._error

    def add_done_callback(self, fn: Callable[["Ticket"], None]) -> None:
        """Run ``fn(ticket)`` once resolved (immediately if already done).

        Callbacks run on the resolving worker thread; keep them short.
        """
        run_now = False
        with self._lock:
            if self._event.is_set():
                run_now = True
            else:
                self._callbacks.append(fn)
        if run_now:
            try:
                fn(self)
            except Exception:  # noqa: BLE001 - same containment as _finish
                pass

    def cancel(self) -> bool:
        """Cancel if still queued; ``False`` once running or resolved."""
        with self._lock:
            if self.state != "queued":
                return False
            self.state = "cancelled"
        self._finish(None, RequestCancelledError("request cancelled by client"))
        # Free the queue slot right away so cancelled backlog does not
        # hold admission capacity (a worker may also have popped this
        # ticket already — the scheduler handles either order once).
        if self._scheduler is not None:
            self._scheduler._discard_cancelled(self)
        return True

    # -- internal ------------------------------------------------------
    def _finish(self, value: object, error: BaseException | None) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._value = value
            self._error = error
            if self.state not in ("cancelled",):
                self.state = "done"
            callbacks, self._callbacks = self._callbacks, []
            self._event.set()
        for fn in callbacks:
            try:
                fn(self)
            except Exception:  # noqa: BLE001 - a callback must never kill
                # the resolving worker thread (e.g. BrokenPipeError from
                # a transport writing to a closed pipe); the ticket is
                # already resolved, so waiters are unaffected.
                pass

    def remaining(self, now: float) -> float | None:
        """Seconds until the deadline at time ``now`` (``None`` = no deadline)."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - now

    def __repr__(self) -> str:
        return (
            f"Ticket(id={self.id}, priority={self.priority!r}, "
            f"state={self.state!r})"
        )


class Scheduler:
    """Bounded-queue thread-pool scheduler with priority lanes.

    Parameters
    ----------
    workers:
        Number of worker threads (``>= 1``).
    queue_limit:
        Maximum number of *queued* (not yet started) tickets across all
        lanes; submits beyond it raise
        :class:`~repro.errors.OverloadedError`. Preempted tickets
        waiting to resume occupy lane slots too, so sustained
        timeslicing tightens admission — by design: resumable backlog
        is real work the server still owes.
    quantum:
        Timeslice length in seconds for :class:`Resumable` tickets
        (default 50 ms; must be positive).
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        queue_limit: int = 64,
        quantum: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise InvalidParameterError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        if quantum is None or not quantum > 0:
            raise InvalidParameterError(
                f"quantum must be positive seconds, got {quantum!r}"
            )
        self.workers = workers
        self.queue_limit = queue_limit
        self.quantum = quantum
        self._clock = clock
        self._cond = threading.Condition(make_rlock("Scheduler._cond"))
        self._lanes: dict[str, deque[Ticket]] = {p: deque() for p in PRIORITIES}
        self._queued = 0
        self._stopping = False
        self._ids = itertools.count(1)
        self.stats: dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "shed_overload": 0,
            "shed_deadline": 0,
            "cancelled": 0,
            "preemptions": 0,
            "deadline_partials": 0,
            "budget_partials": 0,
        }
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        fn: Callable[[float | None], object],
        *,
        priority: str = "normal",
        deadline: float | None = None,
    ) -> Ticket:
        """Queue ``fn`` and return its :class:`Ticket` (non-blocking).

        ``fn`` is called as ``fn(remaining)`` on a worker thread, where
        ``remaining`` is the seconds left until the ticket's deadline at
        start time (``None`` without a deadline). ``deadline`` is
        relative seconds from now; deadlines that are not positive and
        finite as a float (``NaN``, infinities and huge ints included)
        are rejected.
        """
        if priority not in PRIORITIES:
            raise InvalidParameterError(
                f"priority must be one of {PRIORITIES}, got {priority!r}"
            )
        if deadline is not None and not 0 < deadline <= sys.float_info.max:
            raise InvalidParameterError(
                f"deadline must be positive, finite seconds, got {deadline!r}"
            )
        now = self._clock()
        deadline_at = None if deadline is None else now + deadline
        with self._cond:
            if self._stopping:
                raise InvalidParameterError("scheduler is shut down")
            if self._queued >= self.queue_limit:
                self.stats["shed_overload"] += 1
                raise OverloadedError(
                    f"queue full ({self._queued} pending, limit "
                    f"{self.queue_limit}); retry with backoff"
                )
            ticket = Ticket(next(self._ids), fn, priority, deadline_at, now)
            ticket._scheduler = self
            self._lanes[priority].append(ticket)
            self._queued += 1
            self.stats["submitted"] += 1
            self._cond.notify()
        return ticket

    # ------------------------------------------------------------------
    # Worker machinery
    # ------------------------------------------------------------------
    def _discard_cancelled(self, ticket: Ticket) -> None:
        """Remove a just-cancelled ticket from its lane, freeing its slot.

        Races benignly with a worker popping the same ticket: whichever
        side removes it from the lane does the accounting; the other
        side sees it gone (here: ``ValueError``; worker: the cancelled
        state) and counts nothing.
        """
        with self._cond:
            try:
                self._lanes[ticket.priority].remove(ticket)
            except ValueError:
                return  # already dequeued; the worker accounts for it
            self._queued -= 1
            self.stats["cancelled"] += 1

    def _pop_next(self) -> Ticket | None:
        """Highest-priority queued ticket, or ``None`` when stopping idle.

        Blocks on the condition until work arrives. Caller runs it.
        """
        with self._cond:
            while True:
                for lane in PRIORITIES:
                    if self._lanes[lane]:
                        self._queued -= 1
                        return self._lanes[lane].popleft()
                if self._stopping:
                    return None
                self._cond.wait()

    def _worker_loop(self) -> None:
        while True:
            ticket = self._pop_next()
            if ticket is None:
                return
            self._run_ticket(ticket)

    def _run_ticket(self, ticket: Ticket) -> None:
        now = self._clock()
        remaining = ticket.remaining(now)
        with ticket._lock:
            if ticket.state != "queued":
                # Resolved by cancel() while waiting in the lane.
                cancelled = True
            elif remaining is not None and remaining <= 0:
                cancelled = False
            else:
                # Atomic queued -> running transition: from here on,
                # cancel() can no longer win.
                ticket.state = "running"
                if ticket.started_at is None:
                    ticket.started_at = now
                cancelled = None
        if cancelled is True:
            with self._cond:
                self.stats["cancelled"] += 1
            return
        if cancelled is False:
            self._finish_deadline(
                ticket,
                f"deadline passed {-remaining:.3f}s before the request "
                "started (queued behind earlier work)",
            )
            return
        runner = ticket._runner
        if runner is None:
            try:
                value = ticket._fn(remaining)
            except BaseException as exc:  # noqa: BLE001 - delivered to caller
                self._count_failure(exc)
                ticket.finished_at = self._clock()
                ticket._finish(None, exc)
                if not isinstance(exc, Exception):
                    # KeyboardInterrupt/SystemExit: the waiter got the
                    # error, but interpreter-exit signals must not be
                    # swallowed.
                    raise
                return
            if not isinstance(value, Resumable):
                with self._cond:
                    self.stats["completed"] += 1
                ticket.finished_at = self._clock()
                ticket._finish(value, None)
                return
            runner = value
        self._drive_runner(ticket, runner)

    def _count_failure(self, exc: BaseException) -> None:
        """Count a run that raised, by whether it kept partial work.

        A spent ``time_budget`` whose :class:`OutOfTimeError` carries a
        partial solution counts in ``budget_partials``; anything else
        counts in ``failed``.
        """
        harvested = isinstance(exc, OutOfTimeError) and exc.partial is not None
        with self._cond:
            self.stats["budget_partials" if harvested else "failed"] += 1

    def _finish_deadline(self, ticket: Ticket, message: str) -> None:
        """Resolve a ticket whose deadline expired, keeping partial work.

        A ticket that already ran some slices resolves with its
        runner's best-so-far payload attached to the error — the
        anytime contract: a missed deadline returns what was computed,
        it does not discard it.
        """
        partial = None
        if ticket._runner is not None:
            try:
                partial = ticket._runner.partial()
            except Exception:  # noqa: BLE001 - partial is best-effort
                partial = None
        with self._cond:
            if partial is None:
                self.stats["shed_deadline"] += 1
            else:
                self.stats["deadline_partials"] += 1
        ticket.finished_at = self._clock()
        ticket._finish(None, DeadlineExceededError(message, partial=partial))

    def _should_preempt(self, priority: str) -> bool:
        """Whether a running resumable should yield its worker.

        True when any ticket waits in this lane (round-robin among
        equals) or a higher lane (strict priority). Lower-priority
        backlog never preempts. Never preempts during shutdown — the
        drain finishes faster without bouncing tickets through lanes.
        """
        with self._cond:
            if self._stopping:
                return False
            index = PRIORITIES.index(priority)
            return any(self._lanes[p] for p in PRIORITIES[: index + 1])

    def _requeue(self, ticket: Ticket, runner: Resumable) -> None:
        """Put a timesliced-out ticket at the back of its lane."""
        with ticket._lock:
            if ticket._event.is_set():
                return  # resolved concurrently (cancel); drop silently
            ticket.state = "queued"
            ticket._runner = runner
            ticket.preemptions += 1
        with self._cond:
            self.stats["preemptions"] += 1
            self._lanes[ticket.priority].append(ticket)
            self._queued += 1
            self._cond.notify()

    def _drive_runner(self, ticket: Ticket, runner: Resumable) -> None:
        """Timeslice a :class:`Resumable` until done/deadline/preempted."""
        ticket._runner = runner
        while True:
            try:
                done = runner.step(self.quantum)
            except BaseException as exc:  # noqa: BLE001 - delivered to caller
                self._count_failure(exc)
                ticket.finished_at = self._clock()
                ticket._finish(None, exc)
                if not isinstance(exc, Exception):
                    raise
                return
            if done:
                try:
                    value = runner.result()
                except Exception as exc:  # noqa: BLE001 - delivered to caller
                    with self._cond:
                        self.stats["failed"] += 1
                    ticket.finished_at = self._clock()
                    ticket._finish(None, exc)
                    return
                with self._cond:
                    self.stats["completed"] += 1
                ticket.finished_at = self._clock()
                ticket._finish(value, None)
                return
            remaining = ticket.remaining(self._clock())
            if remaining is not None and remaining <= 0:
                self._finish_deadline(
                    ticket,
                    f"deadline expired {-remaining:.3f}s ago mid-solve; "
                    "returning the best solution found so far",
                )
                return
            if self._should_preempt(ticket.priority):
                self._requeue(ticket, runner)
                return

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; drain queued tickets, then stop workers.

        With ``wait=True`` (default) blocks until every worker exits.
        Idempotent.
        """
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def queued(self) -> int:
        """Number of tickets waiting in lanes right now."""
        with self._cond:
            return self._queued

    def info(self) -> dict:
        """Counters plus configuration (for the ``stats`` endpoint)."""
        with self._cond:
            return {
                "workers": self.workers,
                "queue_limit": self.queue_limit,
                "queued": self._queued,
                **self.stats,
            }

    def __repr__(self) -> str:
        return (
            f"Scheduler(workers={self.workers}, queue_limit={self.queue_limit}, "
            f"queued={self.queued()})"
        )
