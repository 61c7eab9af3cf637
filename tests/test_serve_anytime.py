"""Preemptive scheduling, deadline partials, progress streaming.

Covers the serve-layer half of the anytime protocol: the scheduler's
``Resumable`` timeslicing (preemption by priority, round-robin within a
lane, deadline harvesting with partial results) and the server/client
wiring (``progress`` events, ``error.partial`` envelopes).
"""

import io
import json
import threading
import time

import pytest

from repro.errors import DeadlineExceededError, InvalidParameterError
from repro.graph.generators import powerlaw_cluster, watts_strogatz
from repro.serve import Client, Server
from repro.serve.scheduler import Resumable, Scheduler


class StepCounter:
    """A fake resumable workload: ``total`` slices, optional payloads."""

    def __init__(self, total: int, gate: threading.Event | None = None):
        self.total = total
        self.steps = 0
        self.gate = gate

    def runner(self) -> Resumable:
        def step(seconds):
            if self.gate is not None:
                self.gate.wait(5)
            self.steps += 1
            return self.steps >= self.total

        return Resumable(
            step,
            result=lambda: {"steps": self.steps, "done": True},
            partial=lambda: {"steps": self.steps, "partial": True},
        )


class TestSchedulerResumable:
    def test_resumable_runs_to_completion(self):
        with Scheduler(workers=1, quantum=0.001) as sched:
            work = StepCounter(5)
            ticket = sched.submit(lambda remaining: work.runner())
            assert ticket.result(10) == {"steps": 5, "done": True}
        assert sched.stats["completed"] == 1

    def test_deadline_expiry_harvests_partial(self):
        with Scheduler(workers=1, quantum=0.01) as sched:
            gate = threading.Event()
            gate.set()
            slow = StepCounter(10_000)

            def make(remaining):
                runner = slow.runner()
                original = runner.step

                def step(seconds):
                    time.sleep(0.02)
                    return original(seconds)

                runner.step = step
                return runner

            ticket = sched.submit(make, deadline=0.05)
            with pytest.raises(DeadlineExceededError) as err:
                ticket.result(10)
            assert err.value.partial == {"steps": slow.steps, "partial": True}
            assert sched.stats["deadline_partials"] == 1

    def test_higher_lane_preempts_running_resumable(self):
        with Scheduler(workers=1, quantum=0.001) as sched:
            order = []
            started = threading.Event()
            release = threading.Event()

            def long_step(seconds):
                started.set()
                release.wait(5)  # hold the slice until the burst is queued
                time.sleep(0.002)
                return len(order) >= 1  # finish once the high job ran

            long_ticket = sched.submit(
                lambda remaining: Resumable(
                    long_step, result=lambda: "long-done"
                ),
                priority="normal",
            )
            assert started.wait(5)
            high = sched.submit(
                lambda remaining: order.append("high") or "high-done",
                priority="high",
            )
            release.set()
            assert high.result(10) == "high-done"
            assert long_ticket.result(10) == "long-done"
            assert long_ticket.preemptions >= 1
            assert sched.stats["preemptions"] >= 1

    def test_preempted_ticket_can_be_cancelled(self):
        with Scheduler(workers=1, quantum=0.001) as sched:
            started = threading.Event()
            release = threading.Event()

            def step(seconds):
                started.set()
                release.wait(5)
                return False

            long_ticket = sched.submit(
                lambda remaining: Resumable(step, result=lambda: None),
                priority="normal",
            )
            assert started.wait(5)
            blocker = threading.Event()
            sched.submit(lambda remaining: blocker.wait(5), priority="high")
            release.set()
            # The long ticket will be preempted back into its lane while
            # the high job holds the worker; cancel it there.
            deadline = time.monotonic() + 5
            cancelled = False
            while time.monotonic() < deadline and not cancelled:
                cancelled = long_ticket.cancel()
                time.sleep(0.001)
            blocker.set()
            assert cancelled

    def test_invalid_quantum_rejected(self):
        for quantum in (0, -0.5, None):
            with pytest.raises(InvalidParameterError, match="quantum"):
                Scheduler(workers=1, quantum=quantum)


@pytest.fixture()
def served():
    server = Server(workers=1, queue_limit=64, quantum=0.01)
    try:
        yield server, Client(server)
    finally:
        server.close()


class TestServerAnytime:
    def test_progress_events_stream_to_callback(self, served):
        _, client = served
        client.register_graph("g", powerlaw_cluster(800, 7, 0.7, seed=2))
        events = []
        result = client.solve(
            "g", 3, "lp", include_cliques=False, on_progress=events.append
        )
        assert result["size"] > 0
        assert events and events[-1]["done"]
        assert all({"size", "bound", "work", "done"} <= set(e) for e in events)

    def test_deadline_partial_over_the_wire(self, served):
        _, client = served
        client.register_graph("hard", watts_strogatz(300, 10, 0.1, seed=1))
        with pytest.raises(DeadlineExceededError) as err:
            client.solve("hard", 3, "opt-bb", deadline=0.1,
                         include_cliques=False)
        partial = err.value.partial
        assert partial is not None and partial["partial"] is True
        assert partial["size"] >= 0 and partial["bound"] >= partial["size"]

    def test_resumable_deadline_accepted_without_time_budget_hook(self, served):
        # lp has no time_budget hook; its resumable engine is what makes
        # the deadline meaningful (preempt + harvest).
        _, client = served
        client.register_graph("g", powerlaw_cluster(200, 5, 0.6, seed=3))
        result = client.solve("g", 3, "lp", deadline=30.0,
                              include_cliques=False)
        assert result["size"] > 0

    def test_explicit_time_budget_keeps_cooperative_path(self, served):
        server, client = served
        client.register_graph("hard", watts_strogatz(300, 10, 0.1, seed=1))
        from repro.errors import OutOfTimeError

        with pytest.raises(OutOfTimeError) as err:
            client.solve("hard", 3, "opt-bb",
                         options={"time_budget": 0.05},
                         include_cliques=False)
        # Cooperative OOT now also carries the incumbent payload.
        assert err.value.partial is None or err.value.partial["partial"]

    def test_solve_results_identical_to_direct_session(self, served):
        _, client = served
        g = powerlaw_cluster(300, 6, 0.7, seed=4)
        client.register_graph("g", g)
        from repro.core.session import Session

        direct = Session(g).solve(3, "lp")
        served_payload = client.solve("g", 3, "lp")
        assert served_payload["cliques"] == [
            list(c) for c in direct.sorted_cliques()
        ]


class TestStdioProgress:
    def test_stdio_streams_progress_and_final_response(self):
        g = powerlaw_cluster(500, 6, 0.7, seed=5)
        edges = [[int(u), int(v)] for u, v in g.edges()]
        requests = [
            {"id": 1, "op": "register_graph", "name": "g", "edges": edges},
            {"id": 2, "op": "solve", "graph": "g", "k": 3, "method": "lp",
             "progress": True, "include_cliques": False},
            {"id": 3, "op": "shutdown"},
        ]
        stdin = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
        stdout = io.StringIO()
        server = Server(workers=1, quantum=0.005)
        assert server.serve_stdio(stdin, stdout) == 0
        lines = [json.loads(line) for line in stdout.getvalue().splitlines()]
        finals = [l for l in lines if l.get("ok") is not None]
        events = [l for l in lines if l.get("event") == "progress"]
        assert {l["id"] for l in finals} == {1, 2, 3}
        assert all(l["ok"] for l in finals)
        assert events and all(e["id"] == 2 for e in events)
        assert events[-1]["data"]["done"] is True
