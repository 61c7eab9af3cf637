"""Tests for the manifest-based benchmark runner (``repro bench``).

Most tests run the runner against a synthetic suites directory
(``REPRO_BENCH_SUITES_DIR`` / monkeypatched ``runner.BENCH_DIR``) so
they exercise the full manifest → metrics.jsonl → summary → gate
pipeline in milliseconds, without touching the real benchmark scripts.
One subprocess test drives the real ``python -m repro bench --smoke``
CLI on the cheapest real suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench import runner
from repro.errors import InvalidParameterError
from repro.jsonsafe import json_safe

REPO_ROOT = Path(__file__).resolve().parent.parent

FAKE_TABLE1 = '''
CALLS_FILE = {calls_file!r}


def cells(smoke=False):
    from repro.bench.runner import CellSpec, check, quality, ratio

    def ok_cell():
        with open(CALLS_FILE, "a") as fh:
            fh.write("ok_cell\\n")
        return {{
            "solution_size": 7,
            "seconds_solve": 0.01,
            "gate": {{
                "speedup": ratio(2.0),
                "size_total": quality(7),
                "identity": check(True),
            }},
            "artefact": "| table |",
        }}

    def boom_cell():
        with open(CALLS_FILE, "a") as fh:
            fh.write("boom_cell\\n")
        raise ValueError("synthetic failure")

    def after_cell():
        with open(CALLS_FILE, "a") as fh:
            fh.write("after_cell\\n")
        return {{"gate": {{"speedup": ratio(3.0)}}}}

    specs = [CellSpec("alpha", ok_cell, {{"k": 3, "smoke": smoke}})]
    if {with_boom}:
        specs.append(CellSpec("boom", boom_cell, {{}}))
    specs.append(CellSpec("omega", after_cell, {{}}))
    return specs
'''


@pytest.fixture()
def fake_suites(tmp_path, monkeypatch):
    """Point the runner at a synthetic suites dir with one tiny suite.

    Returns a helper that (re)writes the fake ``table1`` script; tests
    run the real registry's ``table1`` spec against it.
    """
    suites_dir = tmp_path / "suites"
    suites_dir.mkdir()
    calls_file = tmp_path / "calls.txt"
    monkeypatch.setattr(runner, "BENCH_DIR", suites_dir)

    def write(with_boom=False):
        (suites_dir / "bench_table1_stats.py").write_text(
            FAKE_TABLE1.format(calls_file=str(calls_file), with_boom=with_boom)
        )
        runner._MODULE_CACHE.pop("bench_table1_stats", None)
        sys.modules.pop("repro_bench_suites.bench_table1_stats", None)
        return calls_file

    yield write
    runner._MODULE_CACHE.pop("bench_table1_stats", None)
    sys.modules.pop("repro_bench_suites.bench_table1_stats", None)


class TestRegistry:
    def test_every_suite_has_a_script(self):
        for spec in runner.SUITES:
            assert (REPO_ROOT / "benchmarks" / f"{spec.stem}.py").exists()

    def test_get_suite_unknown_raises(self):
        with pytest.raises(InvalidParameterError, match="unknown benchmark"):
            runner.get_suite("nope")

    def test_suite_names_unique(self):
        names = runner.suite_names()
        assert len(names) == len(set(names)) == len(runner.SUITES)


class TestManifest:
    def test_manifest_json_safe_round_trip(self):
        plan = [
            (runner.get_suite("table1"),
             [runner.CellSpec("c", lambda: {}, {"k": np.int64(3),
                                               "names": ("FTB", "HST")})])
        ]
        manifest = runner.build_manifest("rt", "smoke", plan)
        restored = json.loads(json.dumps(json_safe(manifest)))
        assert restored["run_id"] == "rt"
        assert restored["mode"] == "smoke"
        assert restored["schema"] == runner.SCHEMA_VERSION
        assert restored["suites"]["table1"]["cells"]["c"]["k"] == 3
        assert restored["environment"]["cpu_count"] >= 1
        assert restored["seeds"] == json_safe(restored["seeds"])
        assert set(restored["budgets"]) == {
            "time_budget_s", "clique_budget", "bench_scale",
        }

    def test_environment_info_is_json_safe(self):
        info = runner.environment_info()
        json.dumps(json_safe(info))
        assert isinstance(info["numpy"], str)

    def test_environment_records_hash_seed(self, monkeypatch):
        monkeypatch.setenv("PYTHONHASHSEED", "101")
        assert runner.environment_info()["python_hash_seed"] == "101"
        monkeypatch.delenv("PYTHONHASHSEED")
        assert runner.environment_info()["python_hash_seed"] == "unset"
        # CPython treats an empty value as unset; so does the manifest.
        monkeypatch.setenv("PYTHONHASHSEED", "")
        assert runner.environment_info()["python_hash_seed"] == "unset"

    def test_summary_surfaces_manifest_hash_seed(self):
        summary = runner.build_summary(
            "r", "smoke", [], environment={"python_hash_seed": "202"}
        )
        assert summary["python_hash_seed"] == "202"
        assert runner.build_summary("r", "smoke", [])["python_hash_seed"] == "unset"


class TestRunSuites:
    def test_run_writes_all_files(self, fake_suites, tmp_path):
        fake_suites()
        outcome = runner.run_suites(
            ["table1"], smoke=True, results_dir=tmp_path / "res", run_id="r1"
        )
        assert outcome.cells_ok == 2 and outcome.cells_error == 0
        run_dir = outcome.run_dir
        for name in ("manifest.json", "metrics.jsonl", "summary.json"):
            assert (run_dir / name).exists()
        assert (run_dir / "artefacts" / "table1--alpha.txt").read_text() \
            == "| table |\n"
        records = [json.loads(line)
                   for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
        assert [r["cell"] for r in records] == ["alpha", "omega"]
        assert records[0]["artefact"] == "artefacts/table1--alpha.txt"
        assert records[0]["metrics"]["solution_size"] == 7

    def test_same_seed_runs_are_deterministic(self, fake_suites, tmp_path):
        fake_suites()

        def strip_volatile(run_dir):
            records = []
            for line in (run_dir / "metrics.jsonl").read_text().splitlines():
                record = json.loads(line)
                record.pop("seconds")
                records.append(record)
            return records

        first = runner.run_suites(["table1"], smoke=True,
                                  results_dir=tmp_path / "a", run_id="r")
        second = runner.run_suites(["table1"], smoke=True,
                                   results_dir=tmp_path / "b", run_id="r")
        assert strip_volatile(first.run_dir) == strip_volatile(second.run_dir)

    def test_partial_results_survive_a_failing_cell(self, fake_suites, tmp_path):
        calls = fake_suites(with_boom=True)
        outcome = runner.run_suites(
            ["table1"], smoke=True, results_dir=tmp_path / "res", run_id="r1"
        )
        # The failing cell is recorded, and later cells still ran.
        assert calls.read_text().splitlines() == [
            "ok_cell", "boom_cell", "after_cell",
        ]
        assert outcome.cells_ok == 2 and outcome.cells_error == 1
        assert outcome.errors == [
            "table1/boom: ValueError('synthetic failure')"
        ]
        records = [json.loads(line) for line in
                   (outcome.run_dir / "metrics.jsonl").read_text().splitlines()]
        by_cell = {r["cell"]: r for r in records}
        assert by_cell["boom"]["status"] == "error"
        assert "synthetic failure" in by_cell["boom"]["error"]
        assert by_cell["alpha"]["status"] == "ok"
        summary = json.loads((outcome.run_dir / "summary.json").read_text())
        assert summary["suites"]["table1"]["errors"] == ["boom"]

    def test_explicit_run_id_collision_raises(self, fake_suites, tmp_path):
        fake_suites()
        runner.run_suites(["table1"], smoke=True,
                          results_dir=tmp_path / "res", run_id="dup")
        with pytest.raises(InvalidParameterError, match="already exists"):
            runner.run_suites(["table1"], smoke=True,
                              results_dir=tmp_path / "res", run_id="dup")

    def test_index_tracks_runs(self, fake_suites, tmp_path):
        fake_suites()
        runner.run_suites(["table1"], smoke=True,
                          results_dir=tmp_path / "res", run_id="r1")
        runner.run_suites(["table1"], smoke=True,
                          results_dir=tmp_path / "res", run_id="r2")
        index = json.loads((tmp_path / "res" / "index.json").read_text())
        assert [e["run_id"] for e in index["runs"]] == ["r1", "r2"]
        assert all(e["suites"] == ["table1"] for e in index["runs"])


class TestLoadRun:
    def test_load_run_requires_manifest(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="manifest.json"):
            runner.load_run(tmp_path)

    def test_killed_run_summary_is_rebuilt(self, fake_suites, tmp_path):
        fake_suites()
        outcome = runner.run_suites(["table1"], smoke=True,
                                    results_dir=tmp_path / "res", run_id="r1")
        (outcome.run_dir / "summary.json").unlink()
        data = runner.load_run(outcome.run_dir)
        assert data.summary["stats"]["cells_ok"] == 2
        assert data.summary["gate"]["table1"]["speedup"]["value"] == 2.0
        # The rebuilt summary reports the manifest's recorded hash seed,
        # not whatever the rebuilding process happens to run under.
        recorded = data.manifest["environment"]["python_hash_seed"]
        assert data.summary["python_hash_seed"] == recorded


class TestGate:
    def _run(self, fake_suites, tmp_path, run_id):
        fake_suites()
        outcome = runner.run_suites(["table1"], smoke=True,
                                    results_dir=tmp_path / "res", run_id=run_id)
        return runner.load_run(outcome.run_dir)

    @staticmethod
    def _doctor(run, **gate_values):
        """Rewrite summary gate metric values on a loaded baseline."""
        for metric, value in gate_values.items():
            run.summary["gate"]["table1"][metric]["value"] = value

    def test_same_mode_gate_passes_against_itself(self, fake_suites, tmp_path):
        run = self._run(fake_suites, tmp_path, "base")
        assert runner.gate_run(run, run) == []

    def test_same_mode_ratio_regression_fails(self, fake_suites, tmp_path):
        fresh = self._run(fake_suites, tmp_path, "fresh")
        baseline = self._run(fake_suites, tmp_path, "base")
        self._doctor(baseline, speedup=100.0)
        failures = runner.gate_run(fresh, baseline)
        assert len(failures) == 1
        assert "metric 'speedup'" in failures[0]
        assert "regression floor" in failures[0]
        assert "max speedup loss 50%" in failures[0]

    def test_same_mode_quality_drift_fails_both_directions(
        self, fake_suites, tmp_path
    ):
        fresh = self._run(fake_suites, tmp_path, "fresh")
        for doctored in (3.0, 11.0):  # fresh size_total is 7
            baseline = self._run(
                fake_suites, tmp_path, f"base{doctored:.0f}"
            )
            self._doctor(baseline, size_total=doctored)
            failures = runner.gate_run(fresh, baseline)
            assert len(failures) == 1 and "quality drifted" in failures[0]

    def test_gate_within_thresholds_passes(self, fake_suites, tmp_path):
        fresh = self._run(fake_suites, tmp_path, "fresh")
        baseline = self._run(fake_suites, tmp_path, "base")
        # 2.0 vs baseline 3.0 is a 33% loss: inside the 50% allowance.
        self._doctor(baseline, speedup=3.0)
        assert runner.gate_run(fresh, baseline) == []

    def test_failed_check_fails_the_gate(self, fake_suites, tmp_path):
        fresh = self._run(fake_suites, tmp_path, "fresh")
        baseline = self._run(fake_suites, tmp_path, "base")
        fresh.summary["gate"]["table1"]["identity"]["value"] = False
        failures = runner.gate_run(fresh, baseline)
        assert len(failures) == 1 and "check failed" in failures[0]

    def test_missing_suite_fails_the_gate(self, fake_suites, tmp_path):
        fresh = self._run(fake_suites, tmp_path, "fresh")
        baseline = self._run(fake_suites, tmp_path, "base")
        baseline.summary["gate"]["extra_suite"] = {
            "speedup": {"kind": "ratio", "value": 1.0, "cell": "c"},
        }
        baseline.summary["suites"]["extra_suite"] = {
            "cells_ok": 1, "cells_error": 0, "seconds": 0.0, "errors": [],
        }
        failures = runner.gate_run(fresh, baseline)
        assert failures == [
            "suite 'extra_suite': present in baseline but missing from "
            "the fresh run"
        ]

    def test_errored_cells_fail_the_gate(self, fake_suites, tmp_path):
        baseline = self._run(fake_suites, tmp_path, "base")
        fake_suites(with_boom=True)
        outcome = runner.run_suites(["table1"], smoke=True,
                                    results_dir=tmp_path / "res",
                                    run_id="fresh-broken")
        fresh = runner.load_run(outcome.run_dir)
        failures = runner.gate_run(fresh, baseline)
        assert any("errored" in f and "boom" in f for f in failures)

    def test_cross_mode_skips_ratio_comparison(self, fake_suites, tmp_path):
        fresh = self._run(fake_suites, tmp_path, "fresh")
        baseline = self._run(fake_suites, tmp_path, "base")
        baseline.manifest["mode"] = "full"
        baseline.summary["mode"] = "full"
        # A huge baseline ratio would fail same-mode, but cross-mode
        # only enforces the absolute min_ratio floor.
        self._doctor(baseline, speedup=1000.0)
        assert runner.gate_run(fresh, baseline) == []
        thresholds = runner.GateThresholds(min_ratio=5.0)
        failures = runner.gate_run(fresh, baseline, thresholds)
        assert len(failures) == 1 and "absolute floor" in failures[0]

    def test_custom_thresholds_tighten_the_gate(self, fake_suites, tmp_path):
        fresh = self._run(fake_suites, tmp_path, "fresh")
        baseline = self._run(fake_suites, tmp_path, "base")
        self._doctor(baseline, speedup=2.2)  # 9% loss
        assert runner.gate_run(fresh, baseline) == []
        tight = runner.GateThresholds(max_speedup_loss=0.05)
        assert len(runner.gate_run(fresh, baseline, tight)) == 1


class TestMigratedBaseline:
    """The checked-in legacy baseline must stay loadable and gateable."""

    BASELINE = REPO_ROOT / "results" / "baseline-legacy"

    def test_baseline_loads(self):
        data = runner.load_run(self.BASELINE)
        assert data.manifest["mode"] == "full"
        assert sorted(data.summary["gate"]) == [
            "anytime", "dynamic", "serve",
        ]
        assert data.summary["stats"]["cells_error"] == 0

    def test_baseline_gate_metric_names_match_cells(self):
        """Synthesized gate metrics must match what cells() emit today."""
        expected = {
            "dynamic": {"modes_converge", "mixed_speedup"},
            "serve": {"warm_vs_cold", "served_matches_direct",
                      "worker_scaling"},
            "anytime": {"monotone_and_pinned", "final_size_lp",
                        "preempt_vs_shed"},
        }
        data = runner.load_run(self.BASELINE)
        for suite, metrics in expected.items():
            assert set(data.summary["gate"][suite]) == metrics

    def test_root_shims_resolve_into_the_baseline(self):
        for name in ("anytime", "dynamic", "serve"):
            shim = REPO_ROOT / f"BENCH_{name}.json"
            assert shim.exists(), shim
            payload = json.loads(shim.read_text())
            assert payload["bench"]


class TestCli:
    def test_bench_list(self, capsys):
        from repro.cli import main

        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in runner.suite_names():
            assert name in out

    def test_bench_unknown_suite(self, capsys):
        from repro.cli import main

        with pytest.raises(InvalidParameterError):
            main(["bench", "nope"])

    @pytest.mark.slow
    def test_bench_smoke_subprocess(self, tmp_path):
        """End-to-end: the real CLI on the cheapest real suite."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--smoke",
             "--run-id", "cli-smoke", "--results-dir", str(tmp_path),
             "table1"],
            capture_output=True, text=True, timeout=300,
            cwd=REPO_ROOT, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "cells ok" in proc.stdout
        run_dir = tmp_path / "cli-smoke"
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["stats"]["cells_error"] == 0
        assert summary["gate"]["table1"]["registry_stable"]["value"] is True
