"""Tests for the EXPERIMENTS.md report generator.

The report renders a finished ``repro bench`` run directory; here a
synthetic suite writes the run in milliseconds, and every
``experiments.run_*`` runner is patched to raise so any re-execution of
the experiments fails the test.
"""

import pytest

from repro.bench import experiments as exp
from repro.bench import runner
from repro.bench.report import PAPER_NOTES

FAKE_TABLE1 = '''
def cells(smoke=False):
    from repro.bench.runner import CellSpec, check

    return [
        CellSpec("table1", lambda: {"gate": {"ok": check(True)},
                                    "artefact": "== Table I (FTB) =="}),
        CellSpec("extra", lambda: {"artefact": "second artefact"}),
        CellSpec("plain", lambda: {"value": 1}),
    ]
'''


@pytest.fixture()
def run_dir(tmp_path, monkeypatch):
    """A finished smoke run whose ``table1`` suite wrote two artefacts."""
    suites = tmp_path / "suites"
    suites.mkdir()
    (suites / "bench_table1_stats.py").write_text(FAKE_TABLE1)
    monkeypatch.setattr(runner, "BENCH_DIR", suites)
    monkeypatch.setattr(runner, "_MODULE_CACHE", {})

    def no_rerun(*args, **kwargs):
        raise AssertionError("the report must not re-run experiments")

    for name in dir(exp):
        if name.startswith("run_"):
            monkeypatch.setattr(exp, name, no_rerun)
    outcome = runner.run_suites(
        ["table1"], smoke=True, results_dir=tmp_path / "res", run_id="r1"
    )
    return outcome.run_dir


class TestPaperNotes:
    def test_every_runner_has_commentary(self):
        # fig1 and ablation_kcore write no artefact text.
        assert set(PAPER_NOTES) == set(runner.suite_names()) - {"fig1", "ablation_kcore"}

    def test_notes_mention_paper_and_measured(self):
        for name, note in PAPER_NOTES.items():
            if name.startswith("ablation"):
                continue
            assert "**Paper:**" in note, name
            assert "**Here:**" in note, name


class TestReportAssembly:
    def test_report_section_for_single_artefact(self, run_dir):
        from repro.bench import report as report_mod

        text = report_mod.build_report(run_dir)
        assert "# EXPERIMENTS" in text
        assert "smoke run `r1`" in text and "3 cells ok, 0 errored" in text
        assert "## table1: Table I" in text
        assert PAPER_NOTES["table1"] in text
        assert "```text\n== Table I (FTB) ==\n```" in text

    def test_one_section_per_artefact(self, run_dir):
        from repro.bench import report as report_mod

        text = report_mod.build_report(run_dir)
        headings = [line for line in text.splitlines() if line.startswith("## ")]
        assert headings == [
            "## table1: Table I: dataset statistics and clique counts",
            "## table1/extra: Table I: dataset statistics and clique counts",
        ]

    def test_main_writes_file(self, run_dir, tmp_path):
        from repro.bench import report as report_mod

        out = tmp_path / "EXP.md"
        assert report_mod.main([str(run_dir), str(out)]) == 0
        assert out.exists() and "second artefact" in out.read_text()
        assert report_mod.main([]) == 2
