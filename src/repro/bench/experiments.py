"""Experiment runners regenerating every table and figure of the paper.

Each ``run_*`` function reproduces one evaluation artefact (see the
suite index in docs/benchmarks.md) at the scaled-down dataset sizes of
:mod:`repro.graph.datasets`, returning an :class:`ExperimentResult` whose
``text`` is a paper-style table and whose ``data`` is the raw grid.

The static sweep (Figure 6 runtime, Table II quality, Table III space)
shares one :func:`run_static_sweep` pass. Budgets come from
:mod:`repro.bench.harness` and produce the paper's ``OOT``/``OOM``
markers instead of results.

The ``repro bench`` suites under ``benchmarks/`` call these runners and
record their output in a run directory; ``python -m repro bench table1
--smoke`` writes one artefact, and :mod:`repro.bench.report` renders a
finished run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.graph import datasets
from repro.graph.generators import watts_strogatz
from repro.cliques.counting import clique_profile
from repro.core.api import find_disjoint_cliques
from repro.core.session import Session
from repro.dynamic.maintainer import DynamicDisjointCliques
from repro.dynamic.workload import (
    deletion_workload,
    mixed_workload,
)
from repro.bench.harness import (
    DEFAULT_CLIQUE_BUDGET,
    DEFAULT_TIME_BUDGET,
    CellOutcome,
    run_cell,
    run_cell_subprocess,
    run_solve_cell,
    scaled,
)
from repro.bench.tables import (
    format_count,
    format_micros,
    format_seconds,
    render_series,
    render_table,
)
from repro.bench.workloads import seed_for, stream_seed

KS = (3, 4, 5, 6)
STATIC_METHODS = ("opt", "hg", "gc", "l", "lp")
OPT_CLIQUE_CAP = 20_000


@dataclass
class ExperimentResult:
    """A regenerated artefact: identifier, rendered text and raw data."""

    name: str
    text: str
    data: Any = field(repr=False, default=None)

    def __str__(self) -> str:
        return self.text


# ----------------------------------------------------------------------
# Table I — dataset statistics
# ----------------------------------------------------------------------
def run_table1(names: Sequence[str] | None = None, ks: Sequence[int] = KS) -> ExperimentResult:
    """Dataset statistics: n, m and the number of k-cliques per k."""
    names = list(names or datasets.TABLE1_NAMES)
    rows = []
    data = {}
    for name in names:
        graph = datasets.load(name)
        profile = clique_profile(graph, ks)
        data[name] = {"n": graph.n, "m": graph.m, **{f"k{k}": c for k, c in profile.items()}}
        rows.append(
            [name, format_count(graph.n), format_count(graph.m)]
            + [format_count(profile[k]) for k in ks]
        )
    text = render_table(
        "Table I: statistics of datasets (scaled substitutes)",
        ["Name", "n", "m"] + [f"k={k}" for k in ks],
        rows,
    )
    return ExperimentResult("table1", text, data)


# ----------------------------------------------------------------------
# Static sweep shared by Figure 6 / Table II / Table III
# ----------------------------------------------------------------------
def _run_static_cell(
    session: Session,
    k: int,
    method: str,
    time_budget: float,
    clique_budget: int,
    trace_memory: bool,
) -> CellOutcome:
    """One (dataset, k, method) cell with the right budget mechanism.

    All methods for a graph share one session, so the clique listing and
    node scores are computed by at most one cell each and reused by the
    rest — the remaining cell time is the solver proper.
    """
    if method == "opt":
        # Cheap feasibility probe first: the clique-graph baseline stores
        # every clique, so a large clique count is an immediate OOM —
        # exactly the paper's outcome for OPT beyond tiny graphs.
        probe = run_cell(
            lambda: session.prep.clique_count(k), time_budget=time_budget
        )
        if not probe.ok:
            return probe
        if probe.value > OPT_CLIQUE_CAP:
            return CellOutcome(marker="OOM", seconds=probe.seconds)
        # The forked child inherits the session's caches copy-on-write.
        return run_cell_subprocess(
            lambda: session.solve(k, "opt", time_budget=time_budget).size,
            time_budget=time_budget,
        )
    outcome = run_solve_cell(
        session,
        k,
        method,
        time_budget=time_budget,
        max_cliques=clique_budget,
        trace_memory=trace_memory,
    )
    if outcome.ok:
        outcome.extra["size"] = outcome.value.size
        outcome.value = outcome.value.size
    return outcome


def run_static_sweep(
    names: Sequence[str] | None = None,
    ks: Sequence[int] = KS,
    methods: Sequence[str] = STATIC_METHODS,
    time_budget: float = DEFAULT_TIME_BUDGET,
    clique_budget: int = DEFAULT_CLIQUE_BUDGET,
    trace_memory: bool = True,
) -> dict[tuple[str, int, str], CellOutcome]:
    """Run every (dataset, k, method) cell once; the basis of Fig6/T2/T3."""
    names = list(names or datasets.TABLE1_NAMES)
    grid: dict[tuple[str, int, str], CellOutcome] = {}
    for name in names:
        session = Session(datasets.load(name))
        for k in ks:
            for method in methods:
                grid[(name, k, method)] = _run_static_cell(
                    session, k, method, time_budget, clique_budget, trace_memory
                )
    return grid


def run_fig6(
    sweep: dict | None = None, names: Sequence[str] | None = None, ks: Sequence[int] = KS,
    **kwargs: Any,
) -> ExperimentResult:
    """Figure 6: average running time per algorithm with varying k."""
    from repro.bench.plotting import ascii_log_chart

    names = list(names or datasets.TABLE1_NAMES)
    sweep = sweep if sweep is not None else run_static_sweep(names, ks, **kwargs)
    blocks = []
    for name in names:
        series = {}
        raw = {}
        for method in STATIC_METHODS:
            cells = [sweep.get((name, k, method)) for k in ks]
            series[method.upper()] = [
                c.marker if (c and c.marker) else (format_seconds(c.seconds) if c else "-")
                for c in cells
            ]
            raw[method.upper()] = [
                c.marker if (c and c.marker) else (c.seconds if c else "-")
                for c in cells
            ]
        blocks.append(
            render_series(f"Figure 6({name}): running time vs k", "k", list(ks), series, fmt=str)
        )
        blocks.append(
            ascii_log_chart(f"Figure 6({name})", "k", list(ks), raw, unit="s")
        )
    return ExperimentResult("fig6", "\n\n".join(blocks), sweep)


def run_table2(
    sweep: dict | None = None, names: Sequence[str] | None = None, ks: Sequence[int] = KS,
    **kwargs: Any,
) -> ExperimentResult:
    """Table II: |S| per algorithm (GC/LP shown as delta vs HG)."""
    names = list(names or datasets.TABLE1_NAMES)
    sweep = sweep if sweep is not None else run_static_sweep(names, ks, **kwargs)
    columns = ["Name"]
    for k in ks:
        columns += [f"OPT k={k}", f"HG k={k}", f"GC(d) k={k}", f"LP(d) k={k}"]
    rows = []
    for name in names:
        row = [name]
        for k in ks:
            opt = sweep.get((name, k, "opt"))
            hg = sweep.get((name, k, "hg"))
            gc = sweep.get((name, k, "gc"))
            lp = sweep.get((name, k, "lp"))
            hg_size = hg.value if (hg and hg.ok) else None

            def delta(cell):
                if cell is None:
                    return "-"
                if cell.marker:
                    return cell.marker
                if hg_size is None:
                    return str(cell.value)
                return f"{cell.value - hg_size:+d}"

            row.append(opt.display() if opt else "-")
            row.append(hg.display() if hg else "-")
            row.append(delta(gc))
            row.append(delta(lp))
        rows.append(row)
    text = render_table(
        "Table II: size of S (GC/LP as delta vs HG)", columns, rows
    )
    return ExperimentResult("table2", text, sweep)


def run_table3(
    sweep: dict | None = None, names: Sequence[str] | None = None, ks: Sequence[int] = KS,
    **kwargs: Any,
) -> ExperimentResult:
    """Table III: peak traced memory per algorithm (MB)."""
    names = list(names or datasets.TABLE1_NAMES)
    sweep = sweep if sweep is not None else run_static_sweep(names, ks, **kwargs)
    columns = ["Name"]
    shown = ("hg", "gc", "lp")
    for k in ks:
        columns += [f"{m.upper()} k={k}" for m in shown]
    rows = []
    for name in names:
        row = [name]
        for k in ks:
            for method in shown:
                cell = sweep.get((name, k, method))
                if cell is None:
                    row.append("-")
                elif cell.marker:
                    row.append(cell.marker)
                else:
                    row.append(f"{cell.peak_mb:.1f}")
        rows.append(row)
    text = render_table(
        "Table III: peak traced memory in MB", columns, rows,
        note="tracemalloc peaks; OPT omitted (runs in a subprocess)",
    )
    return ExperimentResult("table3", text, sweep)


# ----------------------------------------------------------------------
# Table IV — LP vs exact on small graphs
# ----------------------------------------------------------------------
def run_table4(
    names: Sequence[str] | None = None,
    ks: Sequence[int] = KS,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> ExperimentResult:
    """Table IV: LP vs OPT with error ratio on small datasets."""
    names = list(names or datasets.SMALL_EXACT_NAMES)
    columns = ["Dataset", "n", "m"]
    for k in ks:
        columns += [f"LP k={k}", f"OPT k={k}", f"ER k={k}"]
    rows = []
    data = {}
    for name in names:
        graph = datasets.load(name)
        session = Session(graph)
        row = [name, graph.n, graph.m]
        data[name] = {}
        for k in ks:
            lp = session.solve(k, "lp")
            opt_cell = run_cell_subprocess(
                lambda: session.solve(
                    k, "opt", time_budget=time_budget, max_cliques=OPT_CLIQUE_CAP
                ).size,
                time_budget=time_budget,
            )
            if opt_cell.ok:
                opt_size = opt_cell.value
                err = 0.0 if opt_size == 0 else (opt_size - lp.size) / opt_size
                row += [lp.size, opt_size, f"{100 * err:.1f}%"]
            else:
                row += [lp.size, opt_cell.marker, "-"]
            data[name][k] = {
                "lp": lp.size,
                "opt": opt_cell.value if opt_cell.ok else opt_cell.marker,
            }
        rows.append(row)
    text = render_table("Table IV: comparison with exact solution", columns, rows)
    return ExperimentResult("table4", text, data)


# ----------------------------------------------------------------------
# Tables V & VI — synthetic Watts-Strogatz sweep
# ----------------------------------------------------------------------
def run_synthetic_sweep(
    degrees: Sequence[int] = (8, 16, 32, 64),
    n: int | None = None,
    ks: Sequence[int] = KS,
    rewire_p: float = 0.3,
    seed: int | None = None,
    time_budget: float = DEFAULT_TIME_BUDGET,
    clique_budget: int = DEFAULT_CLIQUE_BUDGET,
) -> dict[tuple[int, int, str], CellOutcome]:
    """The paper's synthetic scalability sweep (scaled to ``n`` nodes).

    ``seed=None`` uses the canonical ``synthetic_graph`` stream from
    :mod:`repro.bench.workloads`, keeping this sweep comparable with the
    pytest-driven synthetic benchmarks.
    """
    n = n if n is not None else scaled(1000, minimum=100)
    seed = seed if seed is not None else seed_for("synthetic_graph")
    grid: dict[tuple[int, int, str], CellOutcome] = {}
    for degree in degrees:
        session = Session(watts_strogatz(n, degree, rewire_p, seed=seed))
        for k in ks:
            for method in ("hg", "gc", "lp"):
                grid[(degree, k, method)] = _run_static_cell(
                    session, k, method, time_budget, clique_budget, trace_memory=False
                )
    return grid


def run_table5(
    sweep: dict | None = None,
    degrees: Sequence[int] = (8, 16, 32, 64),
    ks: Sequence[int] = KS,
    **kwargs: Any,
) -> ExperimentResult:
    """Table V: running time on synthetic Watts-Strogatz graphs."""
    sweep = sweep if sweep is not None else run_synthetic_sweep(degrees, ks=ks, **kwargs)
    columns = ["Degree"] + [f"{m.upper()} k={k}" for k in ks for m in ("hg", "gc", "lp")]
    rows = []
    for degree in degrees:
        row = [degree]
        for k in ks:
            for method in ("hg", "gc", "lp"):
                cell = sweep.get((degree, k, method))
                row.append(
                    cell.marker if (cell and cell.marker)
                    else (format_seconds(cell.seconds) if cell else "-")
                )
        rows.append(row)
    text = render_table("Table V: running time on synthetic datasets", columns, rows)
    return ExperimentResult("table5", text, sweep)


def run_table6(
    sweep: dict | None = None,
    degrees: Sequence[int] = (8, 16, 32, 64),
    ks: Sequence[int] = KS,
    **kwargs: Any,
) -> ExperimentResult:
    """Table VI: |S| on synthetic Watts-Strogatz graphs (deltas vs HG)."""
    sweep = sweep if sweep is not None else run_synthetic_sweep(degrees, ks=ks, **kwargs)
    columns = ["Degree"]
    for k in ks:
        columns += [f"HG k={k}", f"GC(d) k={k}", f"LP(d) k={k}"]
    rows = []
    for degree in degrees:
        row = [degree]
        for k in ks:
            hg = sweep.get((degree, k, "hg"))
            hg_size = hg.value if (hg and hg.ok) else None
            row.append(hg.display() if hg else "-")
            for method in ("gc", "lp"):
                cell = sweep.get((degree, k, method))
                if cell is None:
                    row.append("-")
                elif cell.marker:
                    row.append(cell.marker)
                elif hg_size is None:
                    row.append(str(cell.value))
                else:
                    row.append(f"{cell.value - hg_size:+d}")
        rows.append(row)
    text = render_table("Table VI: size of S on synthetic datasets", columns, rows)
    return ExperimentResult("table6", text, sweep)


# ----------------------------------------------------------------------
# Table VII — index construction
# ----------------------------------------------------------------------
def run_table7(names: Sequence[str] | None = None, ks: Sequence[int] = KS) -> ExperimentResult:
    """Table VII: candidate-index build time and size."""
    names = list(names or datasets.TABLE1_NAMES)
    columns = ["Dataset"] + [f"time k={k}" for k in ks] + [f"size k={k}" for k in ks]
    rows = []
    data = {}
    for name in names:
        graph = datasets.load(name)
        times, sizes = [], []
        data[name] = {}
        for k in ks:
            start = time.perf_counter()
            dyn = DynamicDisjointCliques(graph, k, method="lp")
            elapsed = time.perf_counter() - start
            times.append(format_seconds(elapsed))
            sizes.append(format_count(dyn.index_size))
            data[name][k] = {"seconds": elapsed, "index_size": dyn.index_size}
        rows.append([name] + times + sizes)
    text = render_table(
        "Table VII: indexing time and index size", columns, rows,
        note="time includes the initial LP solve (as in the paper)",
    )
    return ExperimentResult("table7", text, data)


# ----------------------------------------------------------------------
# Figure 7 & Table VIII — dynamic updates
# ----------------------------------------------------------------------
def run_dynamic_sweep(
    names: Sequence[str] | None = None,
    ks: Sequence[int] = KS,
    count: int | None = None,
    seed: int | None = None,
) -> dict[tuple[str, int, str], dict[str, float]]:
    """Timed update workloads; the basis of Figure 7 and Table VIII.

    For each dataset and k: delete ``count`` random edges (deletion
    workload), re-insert them (insertion workload), then run the mixed
    workload of ``2 * count`` updates from a fresh maintainer — matching
    the paper's protocol. Records mean per-update latency and the final
    |S| alongside a rebuild-from-scratch reference.

    ``seed=None`` draws the deletion and mixed streams from the
    canonical seeds in :mod:`repro.bench.workloads`; an explicit seed
    keeps the legacy ``seed`` / ``seed + 1`` split.
    """
    names = list(names or datasets.TABLE1_NAMES)
    count = count if count is not None else scaled(200, minimum=10)
    del_seed = seed if seed is not None else stream_seed("deletion")
    mix_seed = seed + 1 if seed is not None else stream_seed("mixed")
    grid: dict[tuple[str, int, str], dict[str, float]] = {}
    for name in names:
        graph = datasets.load(name)
        workload_n = min(count, graph.m // 4)
        for k in ks:
            deletions = deletion_workload(graph, workload_n, seed=del_seed)
            dyn = DynamicDisjointCliques(graph, k, method="lp")
            start = time.perf_counter()
            dyn.apply(deletions)
            del_time = (time.perf_counter() - start) / workload_n
            after_del = dyn.size
            rebuilt_del = find_disjoint_cliques(dyn.graph.snapshot(), k, method="lp").size
            grid[(name, k, "deletion")] = {
                "mean_seconds": del_time,
                "size": after_del,
                "rebuild": rebuilt_del,
                "count": workload_n,
            }

            insertions = [("insert", u, v) for _, u, v in deletions]
            start = time.perf_counter()
            dyn.apply(insertions)
            ins_time = (time.perf_counter() - start) / workload_n
            rebuilt_ins = find_disjoint_cliques(dyn.graph.snapshot(), k, method="lp").size
            grid[(name, k, "insertion")] = {
                "mean_seconds": ins_time,
                "size": dyn.size,
                "rebuild": rebuilt_ins,
                "count": workload_n,
            }

            start_graph, updates = mixed_workload(graph, workload_n, seed=mix_seed)
            dyn2 = DynamicDisjointCliques(start_graph, k, method="lp")
            start = time.perf_counter()
            dyn2.apply(updates)
            mix_time = (time.perf_counter() - start) / len(updates)
            rebuilt_mix = find_disjoint_cliques(dyn2.graph.snapshot(), k, method="lp").size
            grid[(name, k, "mixed")] = {
                "mean_seconds": mix_time,
                "size": dyn2.size,
                "rebuild": rebuilt_mix,
                "count": len(updates),
            }
    return grid


def run_fig7(
    sweep: dict | None = None,
    names: Sequence[str] | None = None,
    ks: Sequence[int] = KS,
    **kwargs: Any,
) -> ExperimentResult:
    """Figure 7: average update time per workload with varying k."""
    from repro.bench.plotting import ascii_log_chart

    names = list(names or datasets.TABLE1_NAMES)
    sweep = sweep if sweep is not None else run_dynamic_sweep(names, ks, **kwargs)
    blocks = []
    for name in names:
        series = {}
        raw = {}
        for workload in ("deletion", "insertion", "mixed"):
            cells = [
                sweep.get((name, k, workload), {}).get("mean_seconds", "-")
                for k in ks
            ]
            series[workload] = [
                format_micros(c) if isinstance(c, float) else c for c in cells
            ]
            raw[workload] = cells
        blocks.append(
            render_series(f"Figure 7({name}): average update time vs k", "k", list(ks), series, fmt=str)
        )
        blocks.append(
            ascii_log_chart(f"Figure 7({name})", "k", list(ks), raw, unit="s")
        )
    return ExperimentResult("fig7", "\n\n".join(blocks), sweep)


def run_table8(
    sweep: dict | None = None,
    names: Sequence[str] | None = None,
    ks: Sequence[int] = KS,
    **kwargs: Any,
) -> ExperimentResult:
    """Table VIII: |S| drift after updates vs rebuilding from scratch."""
    names = list(names or datasets.TABLE1_NAMES)
    sweep = sweep if sweep is not None else run_dynamic_sweep(names, ks, **kwargs)
    columns = ["Dataset"]
    for workload in ("Del", "Ins", "Mix"):
        columns += [f"{workload} k={k}" for k in ks]
    rows = []
    for name in names:
        row = [name]
        for workload in ("deletion", "insertion", "mixed"):
            for k in ks:
                cell = sweep.get((name, k, workload))
                row.append(f"{cell['size'] - cell['rebuild']:+d}" if cell else "-")
        rows.append(row)
    text = render_table(
        "Table VIII: quality of S after updates (delta vs rebuild)",
        columns,
        rows,
    )
    return ExperimentResult("table8", text, sweep)


# ----------------------------------------------------------------------
# Ablations (ours)
# ----------------------------------------------------------------------
def run_ablation_ordering(
    names: Sequence[str] | None = None, k: int = 4
) -> ExperimentResult:
    """HG solution size under different node orderings (Section IV-A)."""
    names = list(names or ["FTB", "HST", "FB", "FBP"])
    orderings = ("id", "degree", "degeneracy")
    rows = []
    data = {}
    for name in names:
        session = Session(datasets.load(name))
        sizes = {}
        for order in orderings:
            result = session.solve(k, "hg", order=order)
            sizes[order] = result.size
        lp = session.solve(k, "lp").size
        data[name] = {**sizes, "lp": lp}
        rows.append([name] + [sizes[o] for o in orderings] + [lp])
    text = render_table(
        f"Ablation: HG ordering sensitivity (k={k})",
        ["Dataset"] + [f"HG/{o}" for o in orderings] + ["LP"],
        rows,
    )
    return ExperimentResult("ablation_ordering", text, data)


def run_ablation_pruning(
    names: Sequence[str] | None = None, ks: Sequence[int] = KS
) -> ExperimentResult:
    """L vs LP: effect of score pruning on FindMin work and runtime."""
    names = list(names or ["FB", "FL", "OR"])
    rows = []
    data = {}
    for name in names:
        session = Session(datasets.load(name))
        for k in ks:
            # Prewarm the shared score pass so L and LP are timed on the
            # FindMin phase alone — the part pruning actually affects.
            session.warm([k])
            timings = {}
            for method in ("l", "lp"):
                start = time.perf_counter()
                result = session.solve(k, method)
                timings[method] = (time.perf_counter() - start, result.stats)
            l_time, l_stats = timings["l"]
            lp_time, lp_stats = timings["lp"]
            data[(name, k)] = {"l_seconds": l_time, "lp_seconds": lp_time}
            rows.append(
                [
                    name,
                    k,
                    format_seconds(l_time),
                    format_seconds(lp_time),
                    f"{l_time / lp_time:.2f}x" if lp_time else "-",
                    format_count(lp_stats.get("branches_pruned", 0)),
                ]
            )
    text = render_table(
        "Ablation: score-driven pruning (L vs LP)",
        ["Dataset", "k", "L time", "LP time", "speedup", "branches pruned"],
        rows,
        note="score pass prewarmed via the session; times cover FindMin only",
    )
    return ExperimentResult("ablation_pruning", text, data)


# ----------------------------------------------------------------------
# Memoized sweeps (shared across benchmark-runner cells)
# ----------------------------------------------------------------------
_SWEEP_CACHE: dict[tuple[Any, ...], Any] = {}


def _cached(key: tuple[Any, ...], build: Any) -> Any:
    if key not in _SWEEP_CACHE:
        _SWEEP_CACHE[key] = build()
    return _SWEEP_CACHE[key]


def cached_static_sweep(
    names: Sequence[str],
    ks: Sequence[int],
    time_budget: float = DEFAULT_TIME_BUDGET,
    clique_budget: int = DEFAULT_CLIQUE_BUDGET,
) -> dict[tuple[str, int, str], CellOutcome]:
    """Memoized :func:`run_static_sweep` so Fig6/T2/T3 cells share one pass."""
    key = ("static", tuple(names), tuple(ks), time_budget, clique_budget)
    return _cached(
        key,
        lambda: run_static_sweep(
            names, ks, time_budget=time_budget, clique_budget=clique_budget
        ),
    )


def cached_synthetic_sweep(
    degrees: Sequence[int],
    n: int,
    ks: Sequence[int],
    time_budget: float = DEFAULT_TIME_BUDGET,
    clique_budget: int = DEFAULT_CLIQUE_BUDGET,
) -> dict[tuple[int, int, str], CellOutcome]:
    """Memoized :func:`run_synthetic_sweep` so Tables V/VI share one pass."""
    key = ("synthetic", tuple(degrees), n, tuple(ks), time_budget, clique_budget)
    return _cached(
        key,
        lambda: run_synthetic_sweep(
            degrees, n=n, ks=ks, time_budget=time_budget, clique_budget=clique_budget
        ),
    )


def cached_dynamic_sweep(
    names: Sequence[str],
    ks: Sequence[int],
    count: int,
) -> dict[tuple[str, int, str], dict[str, float]]:
    """Memoized :func:`run_dynamic_sweep` so Fig7/Table VIII share one pass."""
    key = ("dynamic", tuple(names), tuple(ks), count)
    return _cached(key, lambda: run_dynamic_sweep(names, ks, count=count))
