"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``        pack disjoint k-cliques in a dataset or edge-list file
``stats``        dataset statistics (Table I row for one graph)
``compare``      run several methods side by side with certificates
``methods``      print the solver registry (tags, exactness, options)
``dynamic``      apply an update workload and report latency and drift
``serve``        run the multi-tenant NDJSON server on stdin/stdout
                 (see ``docs/serving.md`` for the protocol)
``datasets``     list the registered datasets
``bench``        run the paper's tables/figures as benchmark suites
                 into a manifest-backed run directory (render one
                 with ``python -m repro.bench.report``)

Solver commands dispatch through the session API
(:class:`repro.core.session.Session`): one session per loaded graph, so
multi-method runs like ``compare`` share the preprocessing (node
scores, clique listings, DAG orientations) instead of recomputing it
per method. Method tags come from the solver registry
(:data:`repro.core.registry.REGISTRY`); see ``methods`` for the full
list with per-method options.

Examples
--------
::

    python -m repro solve --dataset FTB --k 4 --method lp
    python -m repro solve --input my.edges --k 3 --output teams.txt
    python -m repro solve --dataset FB --k 4 --anytime --progress-every 500
    python -m repro stats --dataset HST --ks 3 4 5
    python -m repro compare --dataset FB --k 5 --methods hg lp
    python -m repro methods
    python -m repro dynamic --dataset HST --k 4 --workload mixed --count 100
    python -m repro dynamic --dataset HST --k 4 --batch-size 128
    python -m repro serve --workers 2 --pool-sessions 8
    python -m repro bench table1 fig7 --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # imported for annotations only
    from repro.core.result import CliqueSetResult
    from repro.core.task import SolveTask

from repro.graph import datasets
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.dataset:
        return datasets.load(args.dataset)
    if args.input:
        graph, _ = read_edge_list(Path(args.input))
        return graph
    raise SystemExit("error: provide --dataset NAME or --input FILE")


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", help="registered dataset name (see 'datasets')")
    parser.add_argument("--input", help="edge-list file (u v per line)")


def run_anytime(
    task: "SolveTask",
    progress_every: int,
    should_stop: Callable[[], bool],
    log: Callable[[int, int, int], None],
) -> tuple[bool, int]:
    """Drive a :class:`~repro.core.task.SolveTask` in anytime mode.

    Steps ``progress_every`` work units at a time, calling
    ``log(size, bound, work)`` whenever the solution size or bound
    improved, until the task completes or ``should_stop()`` turns true
    (the CLI wires that to SIGINT). Returns ``(interrupted, work)``.
    """
    last = None
    while True:
        if should_stop():
            return True, task.work
        snapshot = task.step(max_work=progress_every)
        if (snapshot.size, snapshot.bound) != last:
            last = (snapshot.size, snapshot.bound)
            log(snapshot.size, snapshot.bound, snapshot.work)
        if snapshot.done:
            return False, task.work


def _write_solution(
    result: "CliqueSetResult",
    args: argparse.Namespace,
    stream: "object | None" = None,
) -> None:
    """Write the solution file, confirming on ``stream`` (default stderr).

    JSON/anytime mode keeps stdout machine-readable, so the
    confirmation defaults to stderr; the prose path passes stdout.
    """
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            for clique in result.sorted_cliques():
                fh.write(" ".join(map(str, clique)) + "\n")
        print(
            f"wrote {result.size} cliques to {args.output}",
            file=stream if stream is not None else sys.stderr,
        )


def cmd_solve(args: argparse.Namespace) -> int:
    import json
    import signal

    graph = _load_graph(args)
    start = time.perf_counter()
    from repro.core.session import Session
    from repro.errors import InvalidParameterError

    session = Session(graph)
    interrupted = False
    bound = None
    work = None
    if args.anytime:
        if args.progress_every < 1:
            raise SystemExit("error: --progress-every must be >= 1")
        try:
            task = session.task(args.k, method=args.method)
        except InvalidParameterError as exc:
            raise SystemExit(f"error: {exc}")
        stop_flag = []

        def on_sigint(signum, frame):  # pragma: no cover - signal path
            stop_flag.append(True)

        def log(size, bound, work):
            print(
                f"anytime: |S|={size} bound={bound} work={work}",
                file=sys.stderr,
            )

        previous = signal.signal(signal.SIGINT, on_sigint)
        try:
            interrupted, work = run_anytime(
                task, args.progress_every, lambda: bool(stop_flag), log
            )
        finally:
            signal.signal(signal.SIGINT, previous)
        result = task.best()
        bound = task.bound()
    else:
        try:
            result = session.solve(args.k, method=args.method)
        except InvalidParameterError as exc:
            raise SystemExit(f"error: {exc}")
    elapsed = time.perf_counter() - start

    if args.json or args.anytime:
        payload = {
            "k": args.k,
            "method": args.method,
            "size": result.size,
            "coverage": round(result.coverage(graph.n), 4),
            "time_s": round(elapsed, 4),
            "interrupted": interrupted,
        }
        if bound is not None:
            payload["bound"] = bound
            payload["work"] = work
        if args.show:
            payload["cliques"] = [
                list(c) for c in result.sorted_cliques()[: args.show]
            ]
        print(json.dumps(payload))
        _write_solution(result, args)
        return 0

    print(
        f"graph n={graph.n} m={graph.m} | k={args.k} method={args.method} | "
        f"|S|={result.size} coverage={100 * result.coverage(graph.n):.1f}% "
        f"time={elapsed:.3f}s"
    )
    if args.output:
        _write_solution(result, args, stream=sys.stdout)
    elif args.show:
        for clique in result.sorted_cliques()[: args.show]:
            print("  " + " ".join(map(str, clique)))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    from repro.cliques.counting import clique_profile
    from repro.graph.kcore import core_numbers
    from repro.bench.tables import format_count

    profile = clique_profile(graph, ks=tuple(args.ks))
    cores = core_numbers(graph)
    print(f"n={graph.n} m={graph.m} max_degree={graph.max_degree()} "
          f"degeneracy={int(cores.max()) if graph.n else 0}")
    for k, count in profile.items():
        print(f"  {k}-cliques: {format_count(count)}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    from repro.analysis.compare import compare_methods
    from repro.core.session import Session

    # One shared session: every method reuses the same preprocessing.
    rows = compare_methods(Session(graph), args.k, methods=args.methods)
    print(f"{'method':<8} {'|S|':>7} {'time':>9} {'coverage':>9} {'certificate':>12}")
    for row in rows:
        cert = "inf" if row.certificate == float("inf") else f"{row.certificate:.3f}"
        print(
            f"{row.method:<8} {row.size:>7} {row.seconds:>8.3f}s "
            f"{100 * row.coverage:>8.1f}% {cert:>12}"
        )
    return 0


def cmd_dynamic(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    from repro.core.session import Session
    from repro.dynamic.workload import make_workload

    count = min(args.count, graph.m // 4)
    start_graph, updates = make_workload(graph, args.workload, count, seed=args.seed)

    build_start = time.perf_counter()
    dyn = Session(start_graph).dynamic(args.k)
    build = time.perf_counter() - build_start
    apply_start = time.perf_counter()
    if args.batch_size < 0:
        raise SystemExit(f"error: --batch-size must be >= 0, got {args.batch_size}")
    if args.batch_size:
        dyn.apply(updates, batch_size=args.batch_size)
        mode = f"batched({args.batch_size})"
    else:
        dyn.apply(updates)
        mode = "per-edge"
    apply_s = time.perf_counter() - apply_start
    per_update = apply_s / len(updates)
    rebuilt = Session(dyn.graph.snapshot()).solve(args.k, method="lp")
    print(
        f"workload={args.workload} updates={len(updates)} mode={mode} | "
        f"build={build:.2f}s mean-update={per_update * 1e6:.1f}us "
        f"({len(updates) / apply_s:.0f} updates/s) | |S|={dyn.size} "
        f"(rebuild {rebuilt.size}, drift {dyn.size - rebuilt.size:+d}) | "
        f"index={dyn.index_size}"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import Server

    server = Server(
        workers=args.workers,
        queue_limit=args.queue_limit,
        max_sessions=args.pool_sessions,
        max_bytes=args.pool_bytes,
        quantum=args.quantum,
    )
    if not args.quiet:
        print(
            f"repro serve: workers={args.workers} queue_limit={args.queue_limit} "
            f"pool_sessions={args.pool_sessions} pool_bytes={args.pool_bytes} "
            "(NDJSON on stdin/stdout; send {\"op\": \"shutdown\"} or EOF to stop)",
            file=sys.stderr,
        )
    return server.serve_stdio(sys.stdin, sys.stdout)


def cmd_datasets(_args: argparse.Namespace) -> int:
    for spec in datasets.specs():
        print(f"{spec.name:<10} [{spec.tier:<6}] {spec.description}")
    return 0


def cmd_methods(_args: argparse.Namespace) -> int:
    from repro.core.registry import REGISTRY

    print(
        f"{'tag':<8} {'kind':<10} {'resumable':<10} {'time_budget':<12} "
        f"{'deadline':<9} {'warm_start':<11} options"
    )
    for method in REGISTRY:
        kind = "exact" if method.exact else "heuristic"
        resumable = "yes" if method.resumable else "no"
        budget = "yes" if method.supports_time_budget else "no"
        deadline = "yes" if method.can_meet_deadline else "no"
        print(
            f"{method.tag:<8} {kind:<10} {resumable:<10} {budget:<12} "
            f"{deadline:<9} {resumable:<11} {method.options_cls.describe()}"
        )
        print(f"{'':<8} {method.summary}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench import runner as bench_runner

    if args.list:
        for spec in bench_runner.SUITES:
            print(f"{spec.name:<18} [{spec.kind:<8}] {spec.title}")
        return 0

    names = list(args.suites) or None
    if args.reproduce_all:
        names = None
    if names is not None:
        for name in names:
            bench_runner.get_suite(name)  # fail fast on typos
    baseline = None
    if args.gate:  # fail fast on a missing or other-mode baseline
        baseline = bench_runner.load_run(args.gate)
        bench_runner.require_mode(baseline, "smoke" if args.smoke else "full")

    outcome = bench_runner.run_suites(
        names,
        smoke=args.smoke,
        results_dir=args.results_dir,
        run_id=args.run_id,
        echo=print,
    )
    print(f"run {outcome.run_id}: {outcome.cells_ok} cells ok, "
          f"{outcome.cells_error} errored -> {outcome.run_dir}")
    for line in outcome.errors:
        print(f"  ERROR {line}", file=sys.stderr)

    exit_code = 1 if outcome.cells_error else 0
    if baseline is not None:
        failures = bench_runner.gate_run(
            bench_runner.load_run(outcome.run_dir), baseline
        )
        gate_payload = {
            "baseline": str(baseline.path),
            "quality_drift": bench_runner.QUALITY_DRIFT,
            "failures": failures,
            "passed": not failures,
        }
        (outcome.run_dir / "gate.json").write_text(
            json.dumps(gate_payload, indent=2) + "\n", encoding="utf-8"
        )
        if failures:
            print(f"GATE FAILED vs {baseline.path}:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            exit_code = 1
        else:
            print(f"gate passed vs {baseline.path}")
    return exit_code


def _positive_seconds(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as a usage error
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive seconds, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro.core.registry import REGISTRY

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Maximum sets of disjoint k-cliques (ICDE 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="pack disjoint k-cliques")
    _add_graph_args(p)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--method", default="lp", choices=list(REGISTRY.tags()))
    p.add_argument("--output", help="write cliques to a file")
    p.add_argument("--show", type=int, default=0, help="print first N cliques")
    p.add_argument(
        "--anytime",
        action="store_true",
        help="run as a resumable task: stream improving |S|/bound lines to "
        "stderr, print a JSON summary, and exit cleanly (code 0, "
        '"interrupted": true) with the best-so-far solution on SIGINT',
    )
    p.add_argument(
        "--progress-every",
        type=int,
        default=1000,
        metavar="N",
        help="anytime mode: check/report progress every N work units",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON summary instead of prose",
    )
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("stats", help="graph statistics")
    _add_graph_args(p)
    p.add_argument("--ks", type=int, nargs="+", default=[3, 4, 5, 6])
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("compare", help="compare solver methods")
    _add_graph_args(p)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--methods", nargs="+", default=["hg", "lp"])
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("dynamic", help="run an update workload")
    _add_graph_args(p)
    p.add_argument("--k", type=int, default=4)
    p.add_argument(
        "--workload", default="mixed", choices=["deletion", "insertion", "mixed"]
    )
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument(
        "--batch-size",
        type=int,
        default=0,
        help="coalesce updates into batches of this size (0 = per-edge)",
    )
    p.set_defaults(fn=cmd_dynamic)

    p = sub.add_parser("serve", help="serve NDJSON requests on stdin/stdout")
    p.add_argument("--workers", type=int, default=1,
                   help="scheduler worker threads")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="bounded-queue admission limit (backpressure)")
    p.add_argument("--pool-sessions", type=int, default=None,
                   help="max resident sessions in the pool")
    p.add_argument("--pool-bytes", type=int, default=None,
                   help="session-pool byte budget")
    p.add_argument("--quantum", type=_positive_seconds, default=0.05,
                   help="preemption timeslice in seconds for resumable "
                        "solves (must be > 0)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the startup banner on stderr")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("datasets", help="list registered datasets")
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser("methods", help="print the solver registry")
    p.set_defaults(fn=cmd_methods)

    p = sub.add_parser(
        "bench",
        help="run benchmark suites into a manifest-backed results directory",
    )
    p.add_argument("suites", nargs="*",
                   help="suite names to run (default: all; see --list)")
    p.add_argument("--list", action="store_true",
                   help="list registered suites and exit")
    p.add_argument("--smoke", action="store_true",
                   help="reduced-scale run (minutes, not hours)")
    p.add_argument("--reproduce-all", action="store_true",
                   help="run every registered suite (ignores positional names)")
    p.add_argument("--gate", metavar="BASELINE", default=None,
                   help="compare against a same-mode baseline run directory "
                        "and fail on a drifted quality total or failed check")
    p.add_argument("--results-dir", type=Path, default=None,
                   help="results root (default: <repo>/results)")
    p.add_argument("--run-id", default=None,
                   help="explicit run directory name (default: timestamp)")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. piping into `head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
