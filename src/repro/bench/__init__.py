"""Benchmark harness: budgets, table rendering, experiment runners."""

from repro.bench.harness import (
    BENCH_SCALE,
    DEFAULT_CLIQUE_BUDGET,
    DEFAULT_TIME_BUDGET,
    CellOutcome,
    run_cell,
    run_cell_subprocess,
    scaled,
)
from repro.bench.plotting import ascii_log_chart
from repro.bench.runner import (
    CellSpec,
    SuiteSpec,
    check,
    gate_run,
    load_run,
    quality,
    run_suites,
    suite_names,
)
from repro.bench.tables import (
    format_count,
    format_micros,
    format_seconds,
    render_series,
    render_table,
)
from repro.bench.workloads import bench_workload, seed_for, seed_manifest, stream_seed

__all__ = [
    "CellOutcome",
    "run_cell",
    "run_cell_subprocess",
    "scaled",
    "BENCH_SCALE",
    "DEFAULT_TIME_BUDGET",
    "DEFAULT_CLIQUE_BUDGET",
    "CellSpec",
    "SuiteSpec",
    "quality",
    "check",
    "run_suites",
    "gate_run",
    "load_run",
    "suite_names",
    "bench_workload",
    "stream_seed",
    "seed_for",
    "seed_manifest",
    "format_count",
    "format_seconds",
    "format_micros",
    "render_table",
    "render_series",
    "ascii_log_chart",
]
