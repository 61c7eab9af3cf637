#!/usr/bin/env python
"""Set-vs-CSR enumeration backend microbenchmark (the BENCH trajectory).

Times k-clique counting, node scores, listing and ``lightweight``
solves under both execution backends on a synthetic clique-rich graph,
and writes the measurements to a JSON artifact so the perf trajectory
accumulates across PRs. Every comparison first asserts that the two
backends produce identical results.

Two timing modes per operation:

``cold``
    The public one-shot call, including ordering and orientation — what
    a user pays for a single ad-hoc query.
``warm``
    The enumeration kernel over prebuilt session substrates
    (:class:`repro.core.session.Preprocessing`), which is what repeated
    solves against one graph pay — and the apples-to-apples comparison
    of the two kernels (both backends get their substrate for free).

Usage::

    PYTHONPATH=src python benchmarks/bench_backend.py \
        --nodes 10000 --ks 3 4 5 --repeats 3 --out BENCH_backend.json

This file is a standalone script (not collected by pytest); the CI
bench-smoke job runs it at reduced scale and uploads the artifact.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cliques.counting import node_scores  # noqa: E402
from repro.cliques.listing import count_cliques, list_cliques  # noqa: E402
from repro.core.lightweight import lightweight  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.graph.generators import powerlaw_cluster  # noqa: E402


def best_of(fn, repeats: int) -> tuple[float, object]:
    """Best wall-clock of ``repeats`` runs, plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def canonical(cliques) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(c)) for c in cliques)


def compare(rows: list, *, k: int, op: str, mode: str, sets_fn, csr_fn, repeats: int,
            check=lambda a, b: a == b) -> None:
    sets_s, sets_val = best_of(sets_fn, repeats)
    csr_s, csr_val = best_of(csr_fn, repeats)
    assert check(sets_val, csr_val), f"backend mismatch for {op} k={k} ({mode})"
    row = {
        "k": k,
        "op": op,
        "mode": mode,
        "sets_s": round(sets_s, 6),
        "csr_s": round(csr_s, 6),
        "speedup": round(sets_s / csr_s, 3) if csr_s else None,
    }
    rows.append(row)
    print(
        f"  {op:<8} {mode:<5} k={k}: sets={sets_s:8.4f}s  csr={csr_s:8.4f}s"
        f"  speedup={row['speedup']:.2f}x"
    )


def build_parser() -> argparse.ArgumentParser:
    """CLI options (also the source of defaults for runner cells)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=10000)
    parser.add_argument("--attach", type=int, default=8,
                        help="preferential-attachment edges per node")
    parser.add_argument("--triangle-p", type=float, default=0.5,
                        help="triangle-closing probability (clique richness)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ks", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_backend.json")
    return parser


def build_substrate(args):
    """The shared graph + warm substrates every comparison reads from."""
    graph = powerlaw_cluster(args.nodes, args.attach, args.triangle_p, seed=args.seed)
    graph.csr()  # one-time undirected CSR, shared by everything below
    # Warm substrates: both backends read from the same session cache.
    prep = Session(graph).prep
    dag = prep.oriented()
    prep.oriented_csr()
    return graph, dag


def run_k(graph, dag, k: int, repeats: int) -> list[dict]:
    """The six backend comparisons for one clique size ``k``."""
    rows: list[dict] = []
    compare(
        rows, k=k, op="count", mode="cold", repeats=repeats,
        sets_fn=lambda k=k: count_cliques(graph, k, backend="sets"),
        csr_fn=lambda k=k: count_cliques(graph, k, backend="csr"),
    )
    compare(
        rows, k=k, op="count", mode="warm", repeats=repeats,
        sets_fn=lambda k=k: count_cliques(graph, k, backend="sets", dag=dag),
        csr_fn=lambda k=k: count_cliques(graph, k, backend="csr", dag=dag),
    )
    compare(
        rows, k=k, op="scores", mode="cold", repeats=repeats,
        sets_fn=lambda k=k: node_scores(graph, k, backend="sets"),
        csr_fn=lambda k=k: node_scores(graph, k, backend="csr"),
        check=lambda a, b: a.tolist() == b.tolist(),
    )
    compare(
        rows, k=k, op="scores", mode="warm", repeats=repeats,
        sets_fn=lambda k=k: node_scores(graph, k, backend="sets", dag=dag),
        csr_fn=lambda k=k: node_scores(graph, k, backend="csr", dag=dag),
        check=lambda a, b: a.tolist() == b.tolist(),
    )
    compare(
        rows, k=k, op="list", mode="cold", repeats=max(1, repeats - 1),
        sets_fn=lambda k=k: list_cliques(graph, k, backend="sets"),
        csr_fn=lambda k=k: list_cliques(graph, k, backend="csr"),
        check=lambda a, b: canonical(a) == canonical(b),
    )
    # The phase-aware auto default (the FindMin walk is the same for
    # every backend, so only the score pass differs).
    compare(
        rows, k=k, op="solve-auto", mode="cold", repeats=max(1, repeats - 1),
        sets_fn=lambda k=k: lightweight(graph, k, backend="sets"),
        csr_fn=lambda k=k: lightweight(graph, k, backend="auto"),
        check=lambda a, b: a.sorted_cliques() == b.sorted_cliques(),
    )
    return rows


def cells(smoke: bool = False) -> list:
    """Runner cells: one per k, sharing one lazily built substrate.

    Every comparison asserts backend equality before reading a clock,
    so a cell that returns at all has verified the differential
    contract — ``backends_agree`` records that in the gate.
    """
    from repro.bench.runner import CellSpec, check, ratio
    from repro.bench.workloads import seed_for

    args = build_parser().parse_args([])
    args.seed = seed_for("synthetic_graph")
    if smoke:
        args.nodes, args.attach, args.repeats = 2000, 6, 2
        args.ks = [3, 4]
    shared: dict = {}

    def substrate():
        if not shared:
            shared["graph"], shared["dag"] = build_substrate(args)
        return shared["graph"], shared["dag"]

    def make_cell(k: int):
        def run() -> dict:
            graph, dag = substrate()
            rows = run_k(graph, dag, k, args.repeats)
            cold = next(r for r in rows
                        if r["op"] == "count" and r["mode"] == "cold")
            return {
                "rows": rows,
                "gate": {
                    "count_speedup_cold": ratio(cold["speedup"]),
                    "backends_agree": check(True),
                },
            }

        config = {"nodes": args.nodes, "attach": args.attach,
                  "triangle_p": args.triangle_p, "seed": args.seed,
                  "k": k, "repeats": args.repeats}
        return CellSpec(f"k{k}", run, config)

    return [make_cell(k) for k in args.ks]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    graph, dag = build_substrate(args)
    print(f"graph: n={graph.n} m={graph.m} (powerlaw_cluster, seed={args.seed})")

    rows: list[dict] = []
    for k in args.ks:
        rows.extend(run_k(graph, dag, k, args.repeats))

    count_speedups = {
        r["k"]: r["speedup"] for r in rows if r["op"] == "count" and r["mode"] == "cold"
    }
    payload = {
        "bench": "backend",
        "config": {
            "generator": "powerlaw_cluster",
            "nodes": graph.n,
            "edges": graph.m,
            "attach": args.attach,
            "triangle_p": args.triangle_p,
            "seed": args.seed,
            "ks": args.ks,
            "repeats": args.repeats,
            "python": platform.python_version(),
        },
        "results": rows,
        "headline": {
            "count_speedup_by_k": count_speedups,
            "count_speedup_min": min(count_speedups.values()),
        },
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out} (min counting speedup: "
          f"{payload['headline']['count_speedup_min']:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
