"""Scheduler: priorities, deadlines, cancellation, load shedding."""

import threading
import time

import pytest

from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    OutOfTimeError,
    OverloadedError,
    RequestCancelledError,
)
from repro.serve.scheduler import PRIORITIES, Scheduler


def make_gate():
    """A task that blocks its worker until released."""
    release = threading.Event()
    started = threading.Event()

    def task(remaining):
        started.set()
        release.wait(10)
        return "gated"

    return task, started, release


class TestBasics:
    def test_runs_and_returns(self):
        with Scheduler(workers=2) as sched:
            tickets = [sched.submit(lambda r, i=i: i * i) for i in range(10)]
            assert [t.result(5) for t in tickets] == [i * i for i in range(10)]
        assert sched.info()["completed"] == 10

    def test_exceptions_propagate(self):
        with Scheduler() as sched:
            def boom(remaining):
                raise ValueError("broken request")

            ticket = sched.submit(boom)
            with pytest.raises(ValueError, match="broken request"):
                ticket.result(5)
        assert sched.info()["failed"] == 1

    @pytest.mark.parametrize("partial, counter", [(None, "failed"), ({}, "budget_partials")])
    def test_spent_budget_counts_by_partial(self, partial, counter):
        with Scheduler() as sched:
            def spent(remaining):
                raise OutOfTimeError("time_budget spent", partial=partial)

            with pytest.raises(OutOfTimeError):
                sched.submit(spent).result(5)
        info = sched.info()
        assert info[counter] == 1 and info["failed"] + info["budget_partials"] == 1

    def test_remaining_budget_forwarded(self):
        with Scheduler() as sched:
            ticket = sched.submit(lambda remaining: remaining, deadline=30.0)
            remaining = ticket.result(5)
        assert 0 < remaining <= 30.0

    def test_no_deadline_forwards_none(self):
        with Scheduler() as sched:
            assert sched.submit(lambda remaining: remaining).result(5) is None

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            Scheduler(workers=0)
        with pytest.raises(InvalidParameterError):
            Scheduler(queue_limit=0)
        with Scheduler() as sched:
            with pytest.raises(InvalidParameterError):
                sched.submit(lambda r: None, priority="urgent")
            with pytest.raises(InvalidParameterError):
                sched.submit(lambda r: None, deadline=0)
            for deadline in (float("nan"), float("inf"), float("-inf"), 10**400):
                with pytest.raises(InvalidParameterError, match="finite"):
                    sched.submit(lambda r: None, deadline=deadline)
            assert sched.info()["submitted"] == 0

    def test_submit_after_shutdown_rejected(self):
        sched = Scheduler()
        sched.shutdown()
        with pytest.raises(InvalidParameterError):
            sched.submit(lambda r: None)

    def test_shutdown_drains_queued_work(self):
        sched = Scheduler(workers=1)
        tickets = [sched.submit(lambda r, i=i: i) for i in range(20)]
        sched.shutdown(wait=True)
        assert [t.result(0) for t in tickets] == list(range(20))


class TestPriorityLanes:
    def test_high_lane_jumps_the_queue(self):
        order = []
        with Scheduler(workers=1) as sched:
            gate_task, started, release = make_gate()
            gate = sched.submit(gate_task)
            started.wait(5)  # worker busy: everything below queues
            low = sched.submit(lambda r: order.append("low"), priority="low")
            normal = sched.submit(lambda r: order.append("normal"))
            high = sched.submit(lambda r: order.append("high"), priority="high")
            release.set()
            for t in (gate, low, normal, high):
                t.result(5)
        assert order == ["high", "normal", "low"]

    def test_fifo_within_a_lane(self):
        order = []
        with Scheduler(workers=1) as sched:
            gate_task, started, release = make_gate()
            gate = sched.submit(gate_task)
            started.wait(5)
            tickets = [
                sched.submit(lambda r, i=i: order.append(i)) for i in range(5)
            ]
            release.set()
            for t in [gate, *tickets]:
                t.result(5)
        assert order == list(range(5))

    def test_priorities_constant(self):
        assert PRIORITIES == ("high", "normal", "low")


class TestDeadlines:
    def test_expired_in_queue_is_shed_not_run(self):
        ran = []
        with Scheduler(workers=1) as sched:
            gate_task, started, release = make_gate()
            gate = sched.submit(gate_task)
            started.wait(5)
            doomed = sched.submit(lambda r: ran.append(True), deadline=0.05)
            time.sleep(0.2)  # deadline passes while queued
            release.set()
            gate.result(5)
            with pytest.raises(DeadlineExceededError):
                doomed.result(5)
        assert not ran
        assert sched.info()["shed_deadline"] == 1

    def test_deadline_error_is_out_of_time(self):
        # Serving deadline misses must look like the paper's OOT marker
        # to generic budget-handling code.
        assert issubclass(DeadlineExceededError, OutOfTimeError)

    def test_met_deadline_completes_normally(self):
        with Scheduler() as sched:
            assert sched.submit(lambda r: "ok", deadline=30).result(5) == "ok"


class TestCancellation:
    def test_cancel_queued_ticket_never_runs(self):
        ran = []
        with Scheduler(workers=1) as sched:
            gate_task, started, release = make_gate()
            gate = sched.submit(gate_task)
            started.wait(5)
            victim = sched.submit(lambda r: ran.append(True))
            assert victim.cancel()
            release.set()
            gate.result(5)
            with pytest.raises(RequestCancelledError):
                victim.result(5)
        assert not ran
        assert victim.state == "cancelled"
        assert sched.info()["cancelled"] == 1

    def test_cancel_running_ticket_fails(self):
        with Scheduler(workers=1) as sched:
            gate_task, started, release = make_gate()
            gate = sched.submit(gate_task)
            started.wait(5)
            assert not gate.cancel()
            release.set()
            assert gate.result(5) == "gated"

    def test_cancel_resolved_ticket_fails(self):
        with Scheduler() as sched:
            ticket = sched.submit(lambda r: 1)
            ticket.result(5)
            assert not ticket.cancel()


class TestBackpressure:
    def test_overload_shed_at_admission(self):
        with Scheduler(workers=1, queue_limit=2) as sched:
            gate_task, started, release = make_gate()
            gate = sched.submit(gate_task)
            started.wait(5)  # worker pinned; queue empty again
            sched.submit(lambda r: 1)
            sched.submit(lambda r: 2)
            with pytest.raises(OverloadedError):
                sched.submit(lambda r: 3)
            assert sched.info()["shed_overload"] == 1
            release.set()
            gate.result(5)

    def test_cancel_frees_the_queue_slot_immediately(self):
        # A cancelled backlog must not keep shedding new work while a
        # worker is still busy (the corpse is removed at cancel time,
        # not lazily at dequeue).
        with Scheduler(workers=1, queue_limit=2) as sched:
            gate_task, started, release = make_gate()
            gate = sched.submit(gate_task)
            started.wait(5)
            a = sched.submit(lambda r: "a")
            b = sched.submit(lambda r: "b")
            with pytest.raises(OverloadedError):
                sched.submit(lambda r: "c")
            assert a.cancel() and b.cancel()
            assert sched.queued() == 0
            replacement = sched.submit(lambda r: "room again")
            release.set()
            assert gate.result(5) == "gated"
            assert replacement.result(5) == "room again"
        assert sched.info()["cancelled"] == 2

    def test_queue_drains_and_accepts_again(self):
        with Scheduler(workers=1, queue_limit=1) as sched:
            gate_task, started, release = make_gate()
            gate = sched.submit(gate_task)
            started.wait(5)
            first = sched.submit(lambda r: "first")
            with pytest.raises(OverloadedError):
                sched.submit(lambda r: "second")
            release.set()
            assert first.result(5) == "first"
            assert sched.submit(lambda r: "third").result(5) == "third"


class TestCallbacks:
    def test_done_callback_fires_once(self):
        seen = []
        with Scheduler() as sched:
            ticket = sched.submit(lambda r: 42)
            ticket.result(5)
            ticket.add_done_callback(lambda t: seen.append(t.result(0)))
        assert seen == [42]

    def test_raising_callback_does_not_kill_the_worker(self):
        # A transport callback hitting e.g. BrokenPipeError must not
        # take the worker thread down with it — later tickets still run.
        with Scheduler(workers=1) as sched:
            first = sched.submit(lambda r: "first")
            first.result(5)
            first.add_done_callback(lambda t: (_ for _ in ()).throw(
                BrokenPipeError("downstream closed")
            ))
            pending = sched.submit(lambda r: "still alive")
            pending.add_done_callback(lambda t: 1 / 0)
            assert pending.result(5) == "still alive"
            assert sched.submit(lambda r: "after").result(5) == "after"

    def test_callback_registered_before_completion(self):
        seen = []
        done = threading.Event()
        with Scheduler(workers=1) as sched:
            gate_task, started, release = make_gate()
            gate = sched.submit(gate_task)
            gate.add_done_callback(lambda t: (seen.append(t.result(0)), done.set()))
            started.wait(5)
            release.set()
            assert done.wait(5)
        assert seen == ["gated"]
