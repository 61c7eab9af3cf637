"""Manifest-based benchmark runner behind ``python -m repro bench``.

The paper-reproduction harness of the repository: a registry of the
paper table/figure suites and the ablations under ``benchmarks/``,
executed into per-run result directories with full provenance (speed
is measured by ``perfbench/``, not here):

``results/<run-id>/manifest.json``
    Suite specs and per-cell configs, canonical seeds
    (:func:`repro.bench.workloads.seed_manifest`), git SHA,
    python/numpy versions, cpu count and multiprocessing start method.
``results/<run-id>/metrics.jsonl``
    One JSON record per cell, streamed and flushed as cells finish, so
    a killed run keeps its partial results.
``results/<run-id>/summary.json``
    Per-suite rollups plus suite-level gate metrics aggregated from the
    cells (``check`` = AND, ``quality`` = sum).
``results/<run-id>/artefacts/``
    Rendered paper tables/figures (text), one file per cell.
``results/index.json``
    The cross-run ledger, appended after every run.

Each ``benchmarks/bench_*.py`` exposes ``cells(smoke=False)`` returning
:class:`CellSpec` objects; a cell function returns a plain dict whose
``"gate"`` key (built with :func:`quality` / :func:`check`) feeds the
regression gate and whose ``"artefact"`` key (text) is written to the
artefacts directory — everything else is recorded as metrics. Gate
metrics are deterministic per mode; timings are plain metrics. A cell
that raises, or whose ``check`` is False, is recorded as
``status: "error"`` and fails the run.

The gate (:func:`gate_run`) compares a fresh run against a baseline
run directory of the same mode: every ``quality`` total must stay
within :data:`QUALITY_DRIFT` of the baseline, every ``check`` must
hold, and every baseline suite must be present with no errored cell.

Layer: bench (70) — imports harness/workloads/experiments and below,
and is imported only by the CLI.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import InvalidParameterError
from repro.jsonsafe import json_safe

#: Version stamp written into every manifest/record/summary.
SCHEMA_VERSION = 1

#: Repository root (``src/repro/bench/runner.py`` -> three levels up).
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Where the suite scripts live; overridable for tests and sandboxes.
BENCH_DIR = Path(
    os.environ.get("REPRO_BENCH_SUITES_DIR", str(REPO_ROOT / "benchmarks"))
)

#: Default cross-run results directory (``--results-dir`` overrides).
DEFAULT_RESULTS_DIR = REPO_ROOT / "results"

#: How far a ``quality`` total may drift (either direction) from the
#: baseline, as a fraction of ``max(1, |baseline|)``.
QUALITY_DRIFT = 0.05


# ----------------------------------------------------------------------
# Gate-metric constructors (used by the bench scripts' cells())
# ----------------------------------------------------------------------
def quality(value: float) -> dict[str, Any]:
    """A solution-quality gate metric: drift-bounded, sum-aggregated.

    The gate fails when ``|fresh - baseline|`` exceeds
    ``QUALITY_DRIFT * max(1, |baseline|)`` — deterministic seeds mean
    quality should not move at all, in either direction.
    """
    return {"kind": "quality", "value": float(value)}


def check(value: bool) -> dict[str, Any]:
    """An identity/shape gate metric: AND-aggregated; False errors its cell."""
    return {"kind": "check", "value": bool(value)}


# ----------------------------------------------------------------------
# Suite registry
# ----------------------------------------------------------------------
@dataclass
class CellSpec:
    """One benchmark cell: a zero-argument callable plus its config.

    ``fn`` returns a dict; the ``"gate"`` and ``"artefact"`` keys are
    interpreted by the runner (see the module docstring), the rest is
    recorded verbatim (after :func:`repro.jsonsafe.json_safe`) as the
    cell's metrics.
    """

    name: str
    fn: Callable[[], dict[str, Any]]
    config: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SuiteSpec:
    """One registered suite: display metadata plus its script stem."""

    name: str
    stem: str
    kind: str
    title: str


#: Every benchmark suite, in execution order: paper artefacts first,
#: then the ablations.
SUITES: tuple[SuiteSpec, ...] = (
    SuiteSpec("table1", "bench_table1_stats", "paper",
              "Table I: dataset statistics and clique counts"),
    SuiteSpec("fig6", "bench_fig6_runtime", "paper",
              "Figure 6: static algorithm running time vs k"),
    SuiteSpec("table2", "bench_table2_quality", "paper",
              "Table II: solution quality |S| per algorithm"),
    SuiteSpec("table3", "bench_table3_space", "paper",
              "Table III: peak memory per algorithm"),
    SuiteSpec("table4", "bench_table4_exact", "paper",
              "Table IV: LP vs the exact solution on small graphs"),
    SuiteSpec("table5", "bench_table5_synthetic_time", "paper",
              "Table V: runtime on synthetic Watts-Strogatz graphs"),
    SuiteSpec("table6", "bench_table6_synthetic_quality", "paper",
              "Table VI: |S| on synthetic Watts-Strogatz graphs"),
    SuiteSpec("table7", "bench_table7_indexing", "paper",
              "Table VII: candidate-index build time and size"),
    SuiteSpec("fig7", "bench_fig7_updates", "paper",
              "Figure 7: average update latency per workload"),
    SuiteSpec("table8", "bench_table8_quality_after_updates", "paper",
              "Table VIII: |S| drift after updates vs rebuild"),
    SuiteSpec("fig1", "bench_fig1_motivation", "paper",
              "Figure 1: teaming-event conversion motivation"),
    SuiteSpec("ablation_ordering", "bench_ablation_ordering", "ablation",
              "Ablation: HG node-ordering sensitivity"),
    SuiteSpec("ablation_pruning", "bench_ablation_pruning", "ablation",
              "Ablation: score-driven pruning (L vs LP)"),
    SuiteSpec("ablation_kcore", "bench_ablation_kcore", "ablation",
              "Ablation: (k-1)-core pruning preprocessing"),
)


def suite_names() -> list[str]:
    """Names of every registered suite, in execution order."""
    return [spec.name for spec in SUITES]


def get_suite(name: str) -> SuiteSpec:
    """Look up one suite spec by name."""
    for spec in SUITES:
        if spec.name == name:
            return spec
    raise InvalidParameterError(
        f"unknown benchmark suite {name!r}; known: {suite_names()}"
    )


_MODULE_CACHE: dict[str, Any] = {}


def load_bench_module(stem: str) -> Any:
    """Import ``benchmarks/<stem>.py`` by file path (cached).

    The benchmarks directory is deliberately not a package — scripts
    stay directly runnable — so the runner loads them under synthetic
    module names via :mod:`importlib`.
    """
    if stem in _MODULE_CACHE:
        return _MODULE_CACHE[stem]
    path = BENCH_DIR / f"{stem}.py"
    if not path.exists():
        raise InvalidParameterError(f"benchmark script not found: {path}")
    name = f"repro_bench_suites.{stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:  # pragma: no cover - importlib guard
        raise InvalidParameterError(f"cannot load benchmark script: {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    _MODULE_CACHE[stem] = module
    return module


def suite_cells(spec: SuiteSpec, smoke: bool) -> list[CellSpec]:
    """The cells a suite would run at the requested scale."""
    module = load_bench_module(spec.stem)
    return list(module.cells(smoke=smoke))


# ----------------------------------------------------------------------
# Provenance: environment, git, manifest
# ----------------------------------------------------------------------
def git_revision() -> str | None:
    """The repository's HEAD SHA, or ``None`` outside a usable checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment_info() -> dict[str, Any]:
    """Python/numpy versions, platform, cpu count and mp start method."""
    import multiprocessing

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": str(numpy.__version__),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or "default",
        # Hash-randomization provenance: results must be byte-identical
        # under every seed (the CI double-run leg verifies this), so a
        # digest mismatch between two runs should be attributable.
        "python_hash_seed": os.environ.get("PYTHONHASHSEED") or "unset",
    }


def build_manifest(
    run_id: str,
    mode: str,
    suites: Sequence[tuple[SuiteSpec, Sequence[CellSpec]]],
) -> dict[str, Any]:
    """The run manifest: provenance plus the full plan of cells."""
    from repro.bench.harness import (
        BENCH_SCALE,
        DEFAULT_CLIQUE_BUDGET,
        DEFAULT_TIME_BUDGET,
    )
    from repro.bench.workloads import seed_manifest

    manifest: dict[str, Any] = {
        "schema": int(SCHEMA_VERSION),
        "run_id": str(run_id),
        "mode": str(mode),
        "created": str(time.strftime("%Y-%m-%dT%H:%M:%S%z")),
        "git_sha": git_revision(),
        "environment": environment_info(),
        "seeds": seed_manifest(),
        "budgets": {
            "time_budget_s": float(DEFAULT_TIME_BUDGET),
            "clique_budget": int(DEFAULT_CLIQUE_BUDGET),
            "bench_scale": float(BENCH_SCALE),
        },
        "suites": {},
    }
    for spec, cells in suites:
        manifest["suites"][spec.name] = {
            "kind": str(spec.kind),
            "title": str(spec.title),
            "script": str(f"benchmarks/{spec.stem}.py"),
            "cells": {
                cell.name: json_safe(cell.config) for cell in cells
            },
        }
    return manifest


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_cell_record(suite: SuiteSpec, cell: CellSpec) -> dict[str, Any]:
    """Execute one cell, capturing failures as ``status: "error"``.

    A cell fails when it raises or when any of its ``check`` gate
    metrics is False; the error names the failed checks. The returned
    record still carries ``"artefact_text"`` (if any);
    :func:`run_suites` writes it out and replaces it with the artefact's
    relative path before streaming the record.
    """
    record: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "suite": suite.name,
        "cell": cell.name,
        "status": "ok",
        "seconds": 0.0,
        "metrics": {},
        "gate": {},
    }
    start = time.perf_counter()
    try:
        payload = dict(cell.fn())
    except Exception as exc:  # streamed, not raised: the run continues
        record["status"] = "error"
        record["error"] = repr(exc)
    else:
        record["gate"] = payload.pop("gate", {})
        artefact = payload.pop("artefact", None)
        if artefact is not None:
            record["artefact_text"] = str(artefact)
        record["metrics"] = payload
        failed = [
            metric
            for metric, spec in sorted(record["gate"].items())
            if spec.get("kind") == "check" and not spec.get("value")
        ]
        if failed:
            record["status"] = "error"
            record["error"] = f"check failed: {', '.join(failed)}"
    record["seconds"] = round(time.perf_counter() - start, 6)
    return record


def build_summary(
    run_id: str,
    mode: str,
    records: Iterable[Mapping[str, Any]],
    environment: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Aggregate streamed cell records into the run summary.

    Per suite: ok/error counts, total seconds and the errored cell
    names. Per gate metric: ``check`` values AND together (recording
    the first failing cell), ``quality`` values sum.

    ``environment`` is the *manifest's* environment block — passed
    through (not re-read from the current process) so a summary rebuilt
    later by :func:`load_run` reports the hash seed the run actually
    executed under.
    """
    suites: dict[str, dict[str, Any]] = {}
    gate: dict[str, dict[str, Any]] = {}
    for record in records:
        entry = suites.setdefault(
            str(record.get("suite")),
            {"cells_ok": 0, "cells_error": 0, "seconds": 0.0, "errors": []},
        )
        entry["seconds"] = round(
            entry["seconds"] + float(record.get("seconds") or 0.0), 6
        )
        if record.get("status") == "ok":
            entry["cells_ok"] += 1
        else:
            entry["cells_error"] += 1
            entry["errors"].append(str(record.get("cell")))
        _fold_gate(gate, record)
    stats = {
        "suites_run": len(suites),
        "cells_ok": sum(e["cells_ok"] for e in suites.values()),
        "cells_error": sum(e["cells_error"] for e in suites.values()),
        "seconds_total": round(
            sum(e["seconds"] for e in suites.values()), 6
        ),
    }
    environment = environment or {}
    return {
        "schema": int(SCHEMA_VERSION),
        "run_id": str(run_id),
        "mode": str(mode),
        "python_hash_seed": str(environment.get("python_hash_seed", "unset")),
        "suites": suites,
        "gate": gate,
        "stats": stats,
    }


def _fold_gate(
    gate: dict[str, dict[str, Any]], record: Mapping[str, Any]
) -> None:
    suite_gate = gate.setdefault(str(record.get("suite")), {})
    for metric, spec in (record.get("gate") or {}).items():
        kind = spec.get("kind")
        value = spec.get("value")
        agg = suite_gate.get(metric)
        if agg is None:
            suite_gate[metric] = {
                "kind": kind,
                "value": bool(value) if kind == "check" else float(value),
                "cell": str(record.get("cell")),
            }
            continue
        if kind == "check":
            value = bool(value)
            if not value and agg["value"]:
                agg["cell"] = str(record.get("cell"))
            agg["value"] = bool(agg["value"] and value)
        elif kind == "quality":
            agg["value"] = float(agg["value"]) + float(value)
            agg["cell"] = "*"


@dataclass
class RunOutcome:
    """What :func:`run_suites` produced: the run directory plus totals."""

    run_dir: Path
    run_id: str
    cells_ok: int = 0
    cells_error: int = 0
    errors: list[str] = field(default_factory=list)


def default_run_id(smoke: bool) -> str:
    """Timestamp-based run id, tagged with the mode."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-smoke" if smoke else stamp


def _allocate_run_dir(results_root: Path, run_id: str | None, smoke: bool) -> tuple[Path, str]:
    """Create a fresh run directory, auto-suffixing timestamp collisions."""
    if run_id is not None:
        run_dir = results_root / run_id
        if run_dir.exists():
            raise InvalidParameterError(
                f"run directory already exists: {run_dir}"
            )
        run_dir.mkdir(parents=True)
        return run_dir, run_id
    base = default_run_id(smoke)
    for attempt in range(100):
        candidate = base if attempt == 0 else f"{base}-{attempt + 1}"
        run_dir = results_root / candidate
        try:
            run_dir.mkdir(parents=True)
        except FileExistsError:
            continue
        return run_dir, candidate
    raise InvalidParameterError(
        f"cannot allocate a run directory under {results_root}"
    )


def run_suites(
    names: Sequence[str] | None = None,
    *,
    smoke: bool = False,
    results_dir: str | Path | None = None,
    run_id: str | None = None,
    echo: Callable[[str], None] | None = None,
) -> RunOutcome:
    """Execute the selected suites into a fresh ``results/<run-id>/``.

    ``names=None`` runs every registered suite (the ``--reproduce-all``
    behaviour). The manifest is written before the first cell executes
    and ``metrics.jsonl`` is flushed per record, so interrupting the run
    still leaves usable provenance and partial results on disk; the
    summary and cross-run index are written in a ``finally`` block from
    whatever records exist.
    """
    say = echo if echo is not None else (lambda line: None)
    specs = [get_suite(name) for name in (list(names) if names else suite_names())]
    results_root = (
        Path(results_dir) if results_dir is not None else DEFAULT_RESULTS_DIR
    )
    results_root.mkdir(parents=True, exist_ok=True)
    run_dir, run_id = _allocate_run_dir(results_root, run_id, smoke)
    (run_dir / "artefacts").mkdir()
    mode = "smoke" if smoke else "full"

    plan = [(spec, suite_cells(spec, smoke)) for spec in specs]
    manifest = build_manifest(run_id, mode, plan)
    (run_dir / "manifest.json").write_text(
        json.dumps(json_safe(manifest), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    outcome = RunOutcome(run_dir=run_dir, run_id=run_id)
    records: list[dict[str, Any]] = []
    try:
        with (run_dir / "metrics.jsonl").open("w", encoding="utf-8") as stream:
            for spec, cells in plan:
                say(f"suite {spec.name} ({len(cells)} cells, {mode})")
                for cell in cells:
                    record = run_cell_record(spec, cell)
                    artefact_text = record.pop("artefact_text", None)
                    if artefact_text is not None:
                        rel = f"artefacts/{spec.name}--{cell.name}.txt"
                        (run_dir / rel).write_text(
                            artefact_text + "\n", encoding="utf-8"
                        )
                        record["artefact"] = rel
                    stream.write(json.dumps(json_safe(record)) + "\n")
                    stream.flush()
                    records.append(record)
                    if record["status"] == "ok":
                        outcome.cells_ok += 1
                        say(f"  {cell.name}: ok ({record['seconds']:.2f}s)")
                    else:
                        outcome.cells_error += 1
                        outcome.errors.append(
                            f"{spec.name}/{cell.name}: {record.get('error')}"
                        )
                        say(f"  {cell.name}: ERROR {record.get('error')}")
    finally:
        summary = build_summary(
            run_id, mode, records, environment=manifest.get("environment")
        )
        (run_dir / "summary.json").write_text(
            json.dumps(json_safe(summary), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        update_index(results_root, run_dir, manifest, summary)
    return outcome


def update_index(
    results_root: Path,
    run_dir: Path,
    manifest: Mapping[str, Any],
    summary: Mapping[str, Any],
) -> None:
    """Append (or replace) this run's entry in ``results/index.json``."""
    index_path = results_root / "index.json"
    try:
        index = json.loads(index_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        index = {"schema": SCHEMA_VERSION, "runs": []}
    runs = [
        entry
        for entry in index.get("runs", [])
        if entry.get("run_id") != manifest["run_id"]
    ]
    runs.append(
        {
            "run_id": manifest["run_id"],
            "mode": manifest["mode"],
            "created": manifest["created"],
            "git_sha": manifest["git_sha"],
            "path": run_dir.name,
            "suites": sorted(summary.get("suites", {})),
            "cells_ok": summary.get("stats", {}).get("cells_ok", 0),
            "cells_error": summary.get("stats", {}).get("cells_error", 0),
        }
    )
    index["schema"] = SCHEMA_VERSION
    index["runs"] = sorted(runs, key=lambda entry: str(entry.get("created") or ""))
    index_path.write_text(
        json.dumps(json_safe(index), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


# ----------------------------------------------------------------------
# Loading runs and gating
# ----------------------------------------------------------------------
@dataclass
class RunData:
    """A result directory loaded back: manifest, records and summary."""

    path: Path
    manifest: dict[str, Any]
    records: list[dict[str, Any]]
    summary: dict[str, Any]


def load_run(path: str | Path) -> RunData:
    """Load a run directory; rebuilds the summary for killed runs."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise InvalidParameterError(
            f"not a benchmark run directory (no manifest.json): {root}"
        )
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    records: list[dict[str, Any]] = []
    metrics_path = root / "metrics.jsonl"
    if metrics_path.exists():
        for line in metrics_path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                records.append(json.loads(line))
    summary_path = root / "summary.json"
    if summary_path.exists():
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    else:
        summary = build_summary(
            manifest.get("run_id", root.name),
            manifest.get("mode", "full"),
            records,
            environment=manifest.get("environment"),
        )
    return RunData(path=root, manifest=manifest, records=records, summary=summary)


def require_mode(baseline: RunData, mode: str) -> None:
    """Raise unless ``baseline`` was run in ``mode`` (smoke or full).

    Quality totals are only comparable between runs of one mode, so a
    gate across modes is a usage error, not a pass.
    """
    base_mode = baseline.manifest.get("mode")
    if base_mode != mode:
        raise InvalidParameterError(
            f"baseline {baseline.path} is a {base_mode!r} run; a {mode!r} "
            "run can only be gated against a baseline of the same mode"
        )


def gate_run(fresh: RunData, baseline: RunData) -> list[str]:
    """Compare a fresh run against a same-mode baseline; return failures.

    Every suite with gate metrics in the baseline must be present in
    the fresh run with zero errored cells; every baseline gate metric
    must be present, each ``check`` must hold and each ``quality``
    total must stay within :data:`QUALITY_DRIFT`. An empty list means
    the gate passed. A baseline of the other mode raises
    :class:`~repro.errors.InvalidParameterError`.
    """
    require_mode(baseline, str(fresh.manifest.get("mode")))
    failures: list[str] = []
    fresh_suites = fresh.summary.get("suites", {})
    fresh_gate = fresh.summary.get("gate", {})
    for suite, base_metrics in sorted(baseline.summary.get("gate", {}).items()):
        suite_entry = fresh_suites.get(suite)
        if suite_entry is None:
            failures.append(
                f"suite '{suite}': present in baseline but missing from the fresh run"
            )
            continue
        if suite_entry.get("cells_error"):
            errored = ", ".join(suite_entry.get("errors", [])) or "?"
            failures.append(
                f"suite '{suite}': {suite_entry['cells_error']} cell(s) "
                f"errored ({errored})"
            )
        metrics = fresh_gate.get(suite, {})
        for metric, base in sorted(base_metrics.items()):
            spec = metrics.get(metric)
            if spec is None:
                failures.append(
                    f"suite '{suite}' metric '{metric}': missing from the fresh run"
                )
                continue
            cell = spec.get("cell", "?")
            if base.get("kind") == "check":
                if not spec.get("value"):
                    failures.append(
                        f"suite '{suite}' cell '{cell}' metric '{metric}': "
                        "identity/shape check failed"
                    )
                continue
            base_value = float(base.get("value", 0.0))
            drift = abs(float(spec.get("value", 0.0)) - base_value)
            allowed = QUALITY_DRIFT * max(1.0, abs(base_value))
            if drift > allowed:
                failures.append(
                    f"suite '{suite}' cell '{cell}' metric '{metric}': "
                    f"quality drifted by {drift:g} from baseline "
                    f"{base_value:g} (allowed {allowed:g}, max drift "
                    f"{QUALITY_DRIFT:.0%})"
                )
    return failures
