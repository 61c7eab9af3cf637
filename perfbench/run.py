"""Benchmark entry point.

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 20 --trace 0

Run from the repository root. Generates the workload's inputs from
``--seed``, measures for ``--seconds``, checks every output, writes the
full record (and, with ``--trace 1``, the Chrome trace) under
``perfbench/results/``, and prints one ``name value unit`` line per
metric followed by the result as a one-line JSON object. With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, their times scaled to a nominal core speed (see
``measure.Yardstick``); with ``--trace 1`` its per-layer metrics. Exits 1
when an output check fails and 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("cold_solve", "serve_mixed", "update_stream")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def coverage_ratio(tracer: object) -> float:
    """Share of traced op time that spans below the op account for."""
    ops = [i for i, s in enumerate(tracer.spans) if s.name == "bench.op"]
    own = tracer.self_times()
    total = sum(tracer.spans[i].duration for i in ops)
    return 1.0 - sum(own[i] for i in ops) / total if total else 0.0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    workload = importlib.import_module(args.workload)
    import_s = time.perf_counter() - start
    # The workload imported it: importing it first would hide numpy's import.
    from measure import Yardstick

    yard = Yardstick(workload.YARD_WINDOW_S)
    import_s = yard.scale(import_s, yard.last, yard.last)
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), import_s, yard)
    except Exception:  # noqa: BLE001 - a crashed run reports no result
        traceback.print_exc()
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = dict(outcome.metrics)
    if args.trace:
        metrics["trace.coverage_ratio"] = coverage_ratio(outcome.tracer)
        metrics["bench.ref_ms"] = yard.ref_ms()
    # Per-layer metrics of layers this workload never reaches read 0.
    not_reached = [m["name"] for m in declared if m["name"] not in metrics]
    if not args.trace and not_reached:
        raise KeyError(f"{args.workload} did not report {not_reached}")
    result_metrics = {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": result_metrics,
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **outcome.record,
        "errors": outcome.errors,
        "not_reached": not_reached,
        "result": result,
    }
    if args.trace:
        record["layer_self_s"] = outcome.tracer.layer_self_times()
        trace_path = RESULTS / f"{stem}.trace.json"
        trace_path.write_text(json.dumps(outcome.tracer.chrome_trace()), encoding="utf-8")
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for error in outcome.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    for name, entry in result_metrics.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] and not outcome.failed else 1


if __name__ == "__main__":
    sys.exit(main())
