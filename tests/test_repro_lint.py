"""repro-lint self-tests: fixture corpus, ratchet, registry rule, CLI.

Two-directional fixture coverage keeps the rules honest: every
``fail_*.py`` fixture must trigger its rule (the rule cannot go blind)
and every ``pass_*.py`` fixture must stay silent (the rule cannot go
trigger-happy). A final smoke test asserts the shipped tree is clean
under the shipped baseline — the state CI's static-analysis job gates.
"""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from tools.repro_lint.concurrency import FIXTURE_CHECKERS as CONCURRENCY_CHECKERS
from tools.repro_lint.determinism import FIXTURE_CHECKERS as DETERMINISM_CHECKERS
from tools.repro_lint.core import (
    ROOT,
    Violation,
    load_baseline,
    load_module,
    run_rules,
    write_baseline,
)
from tools.repro_lint.rules import FILE_RULES, PROJECT_RULES
from tools.repro_lint.rules.registry_meta import check_registry_object

FIXTURES = Path(__file__).resolve().parent.parent / "tools" / "repro_lint" / "fixtures"

#: Project-scope rules with single-file fixture entry points.
FIXTURE_CHECKERS = {**CONCURRENCY_CHECKERS, **DETERMINISM_CHECKERS}


def run_rule_on_fixture(rule: str, path: Path) -> list:
    """Dispatch a fixture file to its rule's single-file entry point."""
    if rule in FIXTURE_CHECKERS:
        return list(FIXTURE_CHECKERS[rule]([path]))
    return list(FILE_RULES[rule](load_module(path)))


def fixture_cases(kind: str) -> list:
    cases = []
    for rule_dir in sorted(FIXTURES.iterdir()):
        if not rule_dir.is_dir():
            continue
        for path in sorted(rule_dir.glob(f"{kind}_*.py")):
            cases.append(pytest.param(rule_dir.name, path, id=f"{rule_dir.name}/{path.name}"))
    return cases


class TestFixtureCorpus:
    def test_corpus_is_present_for_every_rule(self):
        for rule in (*FILE_RULES, *FIXTURE_CHECKERS):
            rule_dir = FIXTURES / rule
            assert list(rule_dir.glob("pass_*.py")), f"no pass fixtures for {rule}"
            assert list(rule_dir.glob("fail_*.py")), f"no fail fixtures for {rule}"

    @pytest.mark.parametrize("rule,path", fixture_cases("pass"))
    def test_pass_fixture_is_silent(self, rule, path):
        violations = run_rule_on_fixture(rule, path)
        assert violations == [], [v.render() for v in violations]

    @pytest.mark.parametrize("rule,path", fixture_cases("fail"))
    def test_fail_fixture_fires(self, rule, path):
        violations = run_rule_on_fixture(rule, path)
        assert violations, f"{path.name} produced no {rule} violations"
        assert all(v.rule == rule for v in violations)


class TestSuppressionsAndBaseline:
    def test_suppression_comment_silences_the_anchored_line(self, tmp_path):
        source = (FIXTURES / "statskeys" / "fail_typo.py").read_text()
        suppressed = source.replace(
            'stats["cache_hit"] = stats.get("cache_hit", 0) + 1',
            'stats["cache_hit"] = stats.get("cache_hit", 0) + 1  # repro-lint: ignore=statskeys',
        )
        assert suppressed != source
        target = tmp_path / "suppressed.py"
        target.write_text(suppressed)
        report = run_rules(
            {"statskeys": FILE_RULES["statskeys"]}, {}, files=[target]
        )
        assert report.violations == []

    def test_baseline_makes_known_violations_old(self, tmp_path):
        target = tmp_path / "known.py"
        target.write_text((FIXTURES / "statskeys" / "fail_typo.py").read_text())
        first = run_rules({"statskeys": FILE_RULES["statskeys"]}, {}, files=[target])
        assert first.failed and first.new

        baseline = {v.fingerprint() for v in first.violations}
        second = run_rules(
            {"statskeys": FILE_RULES["statskeys"]},
            {},
            baseline=baseline,
            files=[target],
        )
        assert not second.failed
        assert second.violations and not second.new

    def test_stale_baseline_entry_fails_the_run(self, tmp_path):
        target = tmp_path / "known.py"
        target.write_text((FIXTURES / "statskeys" / "fail_typo.py").read_text())
        first = run_rules({"statskeys": FILE_RULES["statskeys"]}, {}, files=[target])
        baseline = {v.fingerprint() for v in first.violations} | {"statskeys|gone.py|x"}
        second = run_rules(
            {"statskeys": FILE_RULES["statskeys"]},
            {},
            baseline=baseline,
            files=[target],
        )
        assert second.stale_baseline == ["statskeys|gone.py|x"]
        assert second.failed and not second.new

    def test_stale_baseline_is_scoped_to_the_rules_that_ran(self, tmp_path):
        target = tmp_path / "known.py"
        target.write_text((FIXTURES / "statskeys" / "fail_typo.py").read_text())
        first = run_rules({"statskeys": FILE_RULES["statskeys"]}, {}, files=[target])
        baseline = {v.fingerprint() for v in first.violations} | {"locking|other.py|y"}
        second = run_rules(
            {"statskeys": FILE_RULES["statskeys"]},
            {},
            baseline=baseline,
            files=[target],
        )
        assert second.stale_baseline == []
        assert not second.failed

    def test_stale_suppression_fails_the_run(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text(
            '"""Clean module."""\n\n'
            "x = 1  # repro-lint: ignore=statskeys\n"
        )
        report = run_rules(
            {"statskeys": FILE_RULES["statskeys"]}, {}, files=[target]
        )
        assert report.failed and not report.new
        [entry] = report.stale_suppressions
        assert "ignore=statskeys" in entry and "clean.py:3" in entry

    def test_suppression_for_unran_rule_is_not_stale(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text(
            '"""Clean module."""\n\n'
            "x = 1  # repro-lint: ignore=locking\n"
        )
        report = run_rules(
            {"statskeys": FILE_RULES["statskeys"]}, {}, files=[target]
        )
        assert not report.failed
        assert report.stale_suppressions == []

    def test_suppression_silences_project_rule_violations(self, tmp_path):
        source = (FIXTURES / "migration" / "fail_state_dict_lock.py").read_text()
        waived = source.replace(
            'return {"ticks": self.ticks, "lock": self._lock}',
            'return {"ticks": self.ticks, "lock": self._lock}  # repro-lint: ignore=migration',
        )
        assert waived != source
        target = tmp_path / "waived.py"
        target.write_text(waived)

        from tools.repro_lint.concurrency import check_migration_files

        def rule(root):
            return check_migration_files([target])

        report = run_rules({}, {"migration": rule}, files=[target])
        assert report.violations == []
        assert report.stale_suppressions == []
        assert not report.failed

    def test_fingerprint_is_stable_across_line_drift(self):
        a = Violation(rule="r", path="p.py", line=3, message="m")
        b = Violation(rule="r", path="p.py", line=30, message="m")
        assert a.fingerprint() == b.fingerprint()

    def test_baseline_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline({"b|x|m", "a|y|m"}, path)
        assert load_baseline(path) == {"a|y|m", "b|x|m"}
        assert load_baseline(tmp_path / "missing.json") == set()


def method_stub(**overrides) -> SimpleNamespace:
    """A metadata-complete fake Method; overrides inject one defect."""
    from repro.core.registry import HGOptions

    base = dict(
        tag="fx",
        summary="fixture method",
        options_cls=HGOptions,
        exact=False,
        engine=None,
    )
    base.update(overrides)
    return SimpleNamespace(**base)


class TestRegistryRule:
    def check(self, *methods) -> list[Violation]:
        return list(check_registry_object(list(methods)))

    def test_consistent_stub_is_clean(self):
        assert self.check(method_stub()) == []

    def test_uppercase_tag_and_empty_summary(self):
        messages = [v.message for v in self.check(method_stub(tag="FX", summary=" "))]
        assert any("lowercase" in m for m in messages)
        assert any("empty summary" in m for m in messages)

    def test_options_class_must_subclass_solveoptions(self):
        [violation] = self.check(method_stub(options_cls=dict))
        assert "SolveOptions" in violation.message

    def test_engine_factory_signature_is_enforced(self):
        def bad_engine(prep, k, opts, extra_knob=3):  # no warm_start
            return None

        messages = [
            v.message for v in self.check(method_stub(engine=bad_engine))
        ]
        assert any("warm_start" in m for m in messages)
        assert any("extra_knob" in str(m) or "extra kwargs" in m for m in messages)

    def test_live_registry_is_consistent(self):
        from repro.core.registry import REGISTRY

        assert list(check_registry_object(REGISTRY)) == []


class TestCliSurfaces:
    def test_github_format_emits_workflow_annotations(self, capsys):
        from tools.repro_lint.__main__ import _print_report
        from tools.repro_lint.core import LintReport

        v = Violation(rule="lockorder", path="src/x.py", line=7, message="boom")
        report = LintReport(
            violations=[v], new=[v], per_rule={"lockorder": 1}, files_checked=1
        )
        _print_report(report, verbose=False, fmt="github")
        out = capsys.readouterr().out
        assert "::error file=src/x.py,line=7,title=repro-lint[lockorder]::boom" in out

    def test_export_lock_graph_writes_artifacts(self, tmp_path):
        from tools.repro_lint.concurrency.lockorder import export_lock_graph

        payload = export_lock_graph(tmp_path)
        assert (tmp_path / "lock_order.json").exists()
        dot = (tmp_path / "lock_order.dot").read_text()
        assert dot.startswith("digraph lock_order")
        assert payload["cycles"] == []
        labels = {lock["label"] for lock in payload["locks"]}
        assert {"Graph._lock", "Session._lock", "DynamicFeed._lock"} <= labels

    def test_static_graph_is_acyclic_and_covers_known_edges(self):
        from tools.repro_lint.concurrency.lockorder import static_edge_set

        edges = static_edge_set()
        assert ("OrientedGraph._lock", "Graph._lock") in edges
        assert ("Preprocessing._lock", "OrientedGraph._lock") in edges
        # No Preprocessing accessor reads the graph's neighbour sets: the
        # set-recursion clique count that did, under the lock, is gone.
        assert ("Preprocessing._lock", "Graph._lock") not in edges


class TestRepoIsClean:
    def test_tree_is_clean_under_shipped_baseline(self):
        report = run_rules(FILE_RULES, PROJECT_RULES, baseline=load_baseline())
        assert not report.failed, "\n".join(v.render() for v in report.new)
        assert report.stale_baseline == [], report.stale_baseline

    def test_module_entry_point_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", "--no-external"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 new" in proc.stdout


class TestDeterminismRules:
    """Behavioral unit tests for the determinism package beyond the
    fixture corpus: suppression wiring, ratchet hygiene, and the
    interprocedural paths that single-file fixtures exercise thinly."""

    def test_suppression_silences_iterorder(self, tmp_path):
        source = (FIXTURES / "iterorder" / "fail_set_sinks.py").read_text()
        waived = source.replace(
            "    return list(nodes)",
            "    return list(nodes)  # repro-lint: ignore=iterorder",
        )
        assert waived != source
        target = tmp_path / "waived.py"
        target.write_text(waived)

        from tools.repro_lint.determinism import check_iterorder_files

        def rule(root):
            return check_iterorder_files([target])

        report = run_rules({}, {"iterorder": rule}, files=[target])
        assert all("list(nodes)" not in v.message for v in report.violations)
        assert not report.stale_suppressions

    def test_stale_determinism_suppression_fails(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text(
            '"""Clean module."""\n\n'
            "x = 1  # repro-lint: ignore=rngflow\n"
        )

        from tools.repro_lint.determinism import check_rngflow_files

        def rule(root):
            return check_rngflow_files([target])

        report = run_rules({}, {"rngflow": rule}, files=[target])
        assert report.failed
        [entry] = report.stale_suppressions
        assert "ignore=rngflow" in entry

    def test_shipped_baseline_has_no_determinism_entries(self):
        baseline = load_baseline()
        for rule in ("iterorder", "rngflow", "envdep"):
            assert not any(f.startswith(f"{rule}|") for f in baseline)

    def test_envdep_traces_through_helper_returns(self, tmp_path):
        target = tmp_path / "helper_chain.py"
        target.write_text(
            "import os\n\n\n"
            "def _width() -> int:\n"
            "    return os.cpu_count() or 1\n\n\n"
            "def _indirect() -> int:\n"
            "    return _width()\n\n\n"
            "class Engine:\n"
            "    def checkpoint(self) -> dict:\n"
            "        return {'w': _indirect()}\n"
        )
        from tools.repro_lint.determinism import check_envdep_files

        violations = check_envdep_files([target])
        assert violations, "two-hop env return chain must be traced"
        assert all(v.rule == "envdep" for v in violations)

    def test_iterorder_respects_parameter_annotations(self, tmp_path):
        target = tmp_path / "annotated.py"
        target.write_text(
            "def ordered(xs: list[int]) -> list[int]:\n"
            "    return list(xs)\n\n\n"
            "def unordered(xs: set[int]) -> list[int]:\n"
            "    return list(xs)\n"
        )
        from tools.repro_lint.determinism import check_iterorder_files

        violations = check_iterorder_files([target])
        assert len(violations) == 1
        assert violations[0].line == 6

    def test_rngflow_seed_laundering_through_locals(self, tmp_path):
        target = tmp_path / "laundered.py"
        target.write_text(
            "import numpy as np\n\n\n"
            "def good(seed: int) -> object:\n"
            "    derived = seed * 3 + 1\n"
            "    return np.random.default_rng(derived)\n\n\n"
            "def bad() -> object:\n"
            "    import time\n"
            "    stamp = time.time_ns()\n"
            "    return np.random.default_rng(stamp)\n"
        )
        from tools.repro_lint.determinism import check_rngflow_files

        violations = check_rngflow_files([target])
        assert len(violations) == 1
        assert "entropy" in violations[0].message

    def test_determinism_rules_are_registered(self):
        for rule in ("iterorder", "rngflow", "envdep"):
            assert rule in PROJECT_RULES
