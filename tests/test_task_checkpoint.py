"""Checkpoint/restore: JSON round-trips, cross-process resume, guards.

The satellite acceptance case: a half-run ``exact_bb`` task is
checkpointed, shipped to a *new process* as JSON, restored there
against a freshly-built equal graph, driven to completion, and its
final solution and stats must match an uninterrupted run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Session
from repro.errors import InvalidParameterError
from repro.graph.generators import powerlaw_cluster, watts_strogatz

SRC = str(Path(__file__).resolve().parent.parent / "src")


def roundtrip(checkpoint: dict) -> dict:
    """Force the checkpoint through its JSON wire form."""
    return json.loads(json.dumps(checkpoint))


class TestInProcessRoundTrip:
    @pytest.mark.parametrize("method,k", [("hg", 4), ("l", 4), ("lp", 4)])
    def test_greedy_halfway_restore_matches_uninterrupted(self, method, k):
        make = lambda: powerlaw_cluster(200, 6, 0.7, seed=4)  # noqa: E731
        session = Session(make())
        reference = session.solve(k, method)

        task = session.task(k, method)
        task.step(max_work=120)
        blob = roundtrip(task.checkpoint())

        fresh = Session(make())
        restored = fresh.restore_task(blob)
        assert restored.work == task.work
        result = restored.run()
        assert result.sorted_cliques() == reference.sorted_cliques()
        assert result.stats == reference.stats

    def test_exact_bb_halfway_restore_matches_uninterrupted(self):
        make = lambda: watts_strogatz(40, 6, 0.2, seed=1)  # noqa: E731
        session = Session(make())
        reference = session.solve(3, "opt-bb")

        task = session.task(3, "opt-bb")
        task.step(max_work=77)
        blob = roundtrip(task.checkpoint())

        restored = Session(make()).restore_task(blob)
        result = restored.run()
        assert result.sorted_cliques() == reference.sorted_cliques()
        assert result.stats == reference.stats

    def test_checkpoint_of_finished_task_restores_done(self):
        session = Session(powerlaw_cluster(80, 5, 0.6, seed=2))
        task = session.task(3, "lp")
        final = task.run()
        restored = session.restore_task(roundtrip(task.checkpoint()))
        assert restored.done
        assert restored.result().sorted_cliques() == final.sorted_cliques()

    def test_checkpoint_preserves_options(self):
        session = Session(powerlaw_cluster(120, 5, 0.6, seed=3))
        task = session.task(3, "hg", order="id")
        task.step(max_work=10)
        blob = roundtrip(task.checkpoint())
        assert blob["options"] == {"order": "id"}
        restored = session.restore_task(blob)
        assert restored.options.order == "id"


class TestGuards:
    def test_fingerprint_mismatch_rejected(self):
        task = Session(powerlaw_cluster(100, 5, 0.6, seed=1)).task(3, "lp")
        task.step(max_work=5)
        blob = task.checkpoint()
        other = Session(powerlaw_cluster(100, 5, 0.6, seed=2))
        with pytest.raises(InvalidParameterError, match="fingerprint"):
            other.restore_task(blob)

    def test_bad_version_rejected(self):
        session = Session(powerlaw_cluster(100, 5, 0.6, seed=1))
        blob = session.task(3, "lp").checkpoint()
        blob["version"] = 99
        with pytest.raises(InvalidParameterError, match="version"):
            session.restore_task(blob)

    def test_non_mapping_rejected(self):
        session = Session(powerlaw_cluster(100, 5, 0.6, seed=1))
        with pytest.raises(InvalidParameterError, match="mapping"):
            session.restore_task("not a checkpoint")


RESUME_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro import Session
from repro.graph.generators import watts_strogatz

payload = json.load(sys.stdin)
session = Session(watts_strogatz(40, 6, 0.2, seed=1))
task = session.restore_task(payload["checkpoint"])
result = task.run()
json.dump({{
    "cliques": [list(c) for c in result.sorted_cliques()],
    "stats": result.stats,
    "work": task.work,
}}, sys.stdout)
"""


class TestCrossProcess:
    def test_exact_bb_checkpoint_resumes_in_subprocess(self):
        """Satellite: half-run opt-bb -> checkpoint -> new process -> equal."""
        make = lambda: watts_strogatz(40, 6, 0.2, seed=1)  # noqa: E731
        session = Session(make())
        reference = session.solve(3, "opt-bb")

        task = session.task(3, "opt-bb")
        # Step until genuinely mid-search (some branches expanded, not done).
        task.step(max_work=101)
        assert not task.done
        blob = task.checkpoint()

        proc = subprocess.run(
            [sys.executable, "-c", RESUME_SCRIPT.format(src=SRC)],
            input=json.dumps({"checkpoint": blob}),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        remote = json.loads(proc.stdout)
        assert remote["cliques"] == [
            list(c) for c in reference.sorted_cliques()
        ]
        assert remote["stats"] == reference.stats
        assert remote["work"] > task.work
