#!/usr/bin/env python
"""Per-edge vs batched dynamic maintenance benchmark (the BENCH trajectory).

Times :meth:`DynamicDisjointCliques.apply` (per-edge, Algorithms 6/7)
against :meth:`apply_batch` (coalesce + one deferred repair pass per
batch) on the paper's Section VI-E workloads — deletion, insertion and
mixed — and writes updates/sec to a JSON artifact so the perf
trajectory accumulates across PRs.

Protocol, per (k, workload):

* one :class:`Session` per workload start graph supplies the initial
  static solve (shared across modes and repeats — the preprocessing is
  not on the clock);
* every mode starts from a freshly built, pre-stabilised maintainer
  (an empty ``apply_batch`` drains the latent swap opportunities of the
  static solve, so no mode gets credit or blame for them);
* per-edge applies the stream one update at a time; batched modes run
  one whole-stream batch (``batch-full``) and a chunked
  (``batch-<chunk>``) variant, each repair picking its engine by region
  size;
* all modes must land on the same final edge set; medians of
  ``--repeats`` runs are recorded.

Usage::

    PYTHONPATH=src python benchmarks/bench_dynamic.py \
        --nodes 10000 --attach 24 --triangle-p 0.9 --ks 3 4 5 \
        --count 500 --repeats 3 --out BENCH_dynamic.json

This file is a standalone script (not collected by pytest); the CI
bench-smoke job runs it at reduced scale and uploads the artifact.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.workloads import bench_workload, seed_for  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.dynamic.maintainer import DynamicDisjointCliques  # noqa: E402
from repro.graph.generators import powerlaw_cluster  # noqa: E402

WORKLOADS = ("deletion", "insertion", "mixed")


def timed_runs(build, run, repeats: int):
    """Median wall time of ``repeats`` runs, plus the last maintainer."""
    times = []
    dyn = None
    for _ in range(repeats):
        dyn = build()
        t0 = time.perf_counter()
        run(dyn)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), dyn


def build_parser() -> argparse.ArgumentParser:
    """CLI options (also the source of defaults for runner cells)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=10000)
    parser.add_argument("--attach", type=int, default=24,
                        help="preferential-attachment edges per node")
    parser.add_argument("--triangle-p", type=float, default=0.9,
                        help="triangle-closing probability (clique richness)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ks", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--count", type=int, default=500,
                        help="sampled edges per workload (mixed applies 2x)")
    parser.add_argument("--chunk", type=int, default=128,
                        help="batch size of the chunked batched mode")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_dynamic.json")
    return parser


def run_workload(graph, workload: str, args,
                 echo=print) -> tuple[list[dict], dict[int, float]]:
    """Time every mode of one workload; returns rows + best batched speedup.

    Asserts in-band that all modes land on the same final edge set.
    """
    rows: list[dict] = []
    best_speedups: dict[int, float] = {}
    start, updates = bench_workload(graph, workload, args.count)
    session = Session(start)
    for k in args.ks:
        initial = session.solve(k, method="lp")

        def build():
            dyn = DynamicDisjointCliques(
                start, k, initial=initial, validate_initial=False
            )
            dyn.apply_batch([])  # pre-stabilise: drain latent swaps
            return dyn

        modes = {
            "per-edge": lambda d: d.apply(updates),
            "batch-full": lambda d: d.apply_batch(updates),
            f"batch-{args.chunk}": lambda d: d.apply(updates, batch_size=args.chunk),
        }
        results = {}
        edge_sets = {}
        for mode, run in modes.items():
            seconds, dyn = timed_runs(build, run, args.repeats)
            results[mode] = (seconds, dyn.size)
            edge_sets[mode] = frozenset(dyn.graph.edges())
        assert len(set(edge_sets.values())) == 1, \
            f"modes diverged on the final graph ({workload}, k={k})"

        per_edge_s = results["per-edge"][0]
        for mode, (seconds, size) in results.items():
            row = {
                "workload": workload,
                "k": k,
                "mode": mode,
                "updates": len(updates),
                "seconds": round(seconds, 6),
                "updates_per_sec": round(len(updates) / seconds, 1),
                "solution_size": size,
                "speedup_vs_per_edge": round(per_edge_s / seconds, 3),
            }
            rows.append(row)
            echo(
                f"  {workload:<9} k={k} {mode:<16} "
                f"{row['updates_per_sec']:>10.0f} up/s  "
                f"x{row['speedup_vs_per_edge']:.2f}  |S|={size}"
            )
        best = min(
            seconds for mode, (seconds, _) in results.items()
            if mode != "per-edge"
        )
        best_speedups[k] = round(per_edge_s / best, 3)
    return rows, best_speedups


def cells(smoke: bool = False) -> list:
    """Runner cells: one per workload, sharing one lazily built graph.

    The final-graph equality assert runs in-band; ``modes_converge``
    records it in the gate, and the mixed cell carries the headline
    batched-speedup ratio.
    """
    from repro.bench.runner import CellSpec, check, ratio
    from repro.bench.workloads import seed_for

    args = build_parser().parse_args([])
    args.seed = seed_for("synthetic_graph")
    if smoke:
        args.nodes, args.attach, args.triangle_p = 1500, 8, 0.6
        args.ks, args.count, args.chunk, args.repeats = [3, 4], 60, 32, 1
    shared: dict = {}

    def graph():
        if not shared:
            shared["graph"] = powerlaw_cluster(
                args.nodes, args.attach, args.triangle_p, seed=args.seed
            )
        return shared["graph"]

    def make_cell(workload: str):
        def run() -> dict:
            rows, speedups = run_workload(
                graph(), workload, args, echo=lambda line: None
            )
            result = {
                "rows": rows,
                "best_batched_speedup_by_k": speedups,
                "gate": {"modes_converge": check(True)},
            }
            if workload == "mixed":
                result["gate"]["mixed_speedup"] = ratio(max(speedups.values()))
            return result

        config = {"nodes": args.nodes, "attach": args.attach,
                  "triangle_p": args.triangle_p, "seed": args.seed,
                  "ks": list(args.ks), "count": args.count,
                  "chunk": args.chunk, "repeats": args.repeats,
                  "workload": workload}
        return CellSpec(workload, run, config)

    return [make_cell(workload) for workload in WORKLOADS]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    graph = powerlaw_cluster(args.nodes, args.attach, args.triangle_p, seed=args.seed)
    print(f"graph: n={graph.n} m={graph.m} (powerlaw_cluster, seed={args.seed})")

    rows: list[dict] = []
    mixed_speedups: dict[int, float] = {}
    for workload in WORKLOADS:
        workload_rows, speedups = run_workload(graph, workload, args)
        rows.extend(workload_rows)
        if workload == "mixed":
            mixed_speedups = speedups

    payload = {
        "bench": "dynamic",
        "config": {
            "generator": "powerlaw_cluster",
            "nodes": graph.n,
            "edges": graph.m,
            "attach": args.attach,
            "triangle_p": args.triangle_p,
            "seed": args.seed,
            "ks": args.ks,
            "count": args.count,
            "chunk": args.chunk,
            "repeats": args.repeats,
            "python": platform.python_version(),
        },
        "results": rows,
        "headline": {
            "mixed_speedup_by_k": mixed_speedups,
            "mixed_speedup_max": max(mixed_speedups.values()),
        },
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out} (best mixed batched speedup: "
          f"{payload['headline']['mixed_speedup_max']:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
