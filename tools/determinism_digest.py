"""Canonical digests for the hash-randomization double-run check.

CI runs this tool twice under two distinct ``PYTHONHASHSEED`` values
(see the ``static-analysis`` job) and diffs the output: any divergence
means some solution, stat or checkpoint payload inherited hash-table
iteration order — exactly the property the ``iterorder``/``rngflow``/
``envdep`` static rules claim to rule out. The digests deliberately
exclude wall-clock values, so the comparison is noise-free.

Two modes::

    python tools/determinism_digest.py solve
        Pinned in-process workload: seeded generator graphs, full
        ``lp`` solves at k = 2-5 and an ``l`` solve at k = 4 (every
        branch of the FindMin walk), a full ``opt-bb`` exact solve, a
        stepped ``lp`` task checkpointed mid-run, a warm-started ``lp``
        task (HeapInit over the residual graph), and the min-degree
        peel (degeneracy rank, core numbers, an ``hg`` solve under the
        degeneracy order). Emits one ``<label> <sha256>`` line per
        component plus a ``combined`` line over them. Three more lines,
        ``dynamic_solution``, ``dynamic_stats`` and ``dynamic_index``,
        digest dynamic repair: a pinned mixed update stream applied in
        16-update batches and per edge at k = 3 and 4, recorded after
        every batch and at the end of the per-edge run. Three more,
        ``dynamic_rule_solution``, ``dynamic_rule_stats`` and
        ``dynamic_rule_index``, digest the same states after every batch
        of a stream whose batches fall on every side of the dynamic
        engine rule (freed nodes plus eligible inserted edges against
        ``AUTO_DIRTY_THRESHOLD``, and the patch-width gate). Two more,
        ``dynamic_build_solution`` and ``dynamic_build_index``, digest
        the candidate-index build: the solution (owner ids included)
        with the stats, and the index, right after construction and
        after the first ``apply_batch([])`` sweep, at k = 2-5 from
        ``lp`` and ``hg`` starts on the start graphs of the two dynamic
        streams. Two more,
        ``lp_hub_solution`` and ``lp_hub_stats``, digest ``lp`` at
        k = 3-5 and ``l`` at k = 4 on a graph with a hub joined to every
        node, whose row is longer than ``ROW_CAP`` (the list walk and its
        re-bases) while seven rows are over 64 nodes (multi-word masks).

    python tools/determinism_digest.py run <results/run-dir>
        Digest of a bench run directory's order-bearing content: per
        record the suite/cell/status and gate entries (``check`` and
        ``quality`` values, never timings) from ``metrics.jsonl``, plus
        the recorded seed manifest.

Exit status is always 0 on success; the *comparison* happens in CI by
diffing the two outputs (uploaded as artifacts on mismatch).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

if TYPE_CHECKING:  # imported for annotations only
    from repro.dynamic import DynamicDisjointCliques


def _digest(payload: object) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def solve_digests() -> dict[str, str]:
    """Digests of a pinned lp + opt-bb workload with a mid-run checkpoint
    and a warm start, plus the degeneracy peel."""
    from repro import Session
    from repro.graph.generators import erdos_renyi_gnm, powerlaw_cluster
    from repro.jsonsafe import json_safe

    out: dict[str, str] = {}

    # Full lp solve on a mid-sized seeded power-law graph.
    graph = powerlaw_cluster(160, 5, 0.5, seed=7)
    session = Session(graph)
    lp = session.solve(3, "lp")
    out["lp_solution"] = _digest(lp.sorted_cliques())
    out["lp_stats"] = _digest(json_safe(dict(lp.stats)))
    # Every branch of the FindMin walk: the one-level k=2 loop, the leaf
    # level (k=3 above), the recursion (k=4, 5), and pruning off (l).
    for method, k in (("lp", 2), ("lp", 4), ("lp", 5), ("l", 4)):
        result = session.solve(k, method)
        out[f"{method}_k{k}_solution"] = _digest(result.sorted_cliques())
        out[f"{method}_k{k}_stats"] = _digest(json_safe(dict(result.stats)))

    # Exact branch-and-bound on a small seeded G(n, m) instance.
    small = erdos_renyi_gnm(40, 140, seed=11)
    bb = Session(small).solve(3, "opt-bb")
    out["opt_bb_solution"] = _digest(bb.sorted_cliques())
    out["opt_bb_stats"] = _digest(json_safe(dict(bb.stats)))

    # Mid-run checkpoint: the restore payload must be byte-identical
    # across hash seeds for cross-process task migration to be sound.
    task = session.task(3, "lp")
    task.step(max_work=5)
    checkpoint = json.dumps(
        json_safe(task.checkpoint()), sort_keys=True, separators=(",", ":")
    )
    out["lp_checkpoint"] = hashlib.sha256(
        checkpoint.encode("utf-8")
    ).hexdigest()

    # Warm start: every other clique of an hg solve seeds an lp task, so
    # its HeapInit runs over the residual graph instead of the cache.
    seed = session.solve(4, "hg").sorted_cliques()[::2]
    warm = session.task(4, "lp", warm_start=seed).run()
    out["lp_warm_solution"] = _digest(warm.sorted_cliques())
    out["lp_warm_stats"] = _digest(json_safe(dict(warm.stats)))

    # The min-degree peel: its order and core numbers, and the one
    # solver whose solution reads that order.
    out["degeneracy_rank"] = _digest(session.prep.rank("degeneracy").tolist())
    out["core_numbers"] = _digest(session.prep.core_numbers().tolist())
    hg = session.solve(3, "hg", order="degeneracy")
    out["hg_degeneracy_solution"] = _digest(hg.sorted_cliques())
    out["hg_degeneracy_stats"] = _digest(json_safe(dict(hg.stats)))

    out["combined"] = _digest(sorted(out.items()))
    return out


def hub_digests() -> dict[str, str]:
    """Digests of the ``lp``/``l`` solves on a pinned graph whose hub
    row takes FindMin's long-row path."""
    from repro import Graph, Session
    from repro.graph.generators import powerlaw_cluster
    from repro.jsonsafe import json_safe

    base = powerlaw_cluster(1100, 4, 0.7, seed=5)
    hub = base.n
    session = Session(
        Graph(hub + 1, [*base.edges(), *((hub, v) for v in base.nodes())])
    )
    solutions: dict[str, list] = {}
    stats: dict[str, object] = {}
    for method, k in (("lp", 3), ("lp", 4), ("lp", 5), ("l", 4)):
        result = session.solve(k, method)
        solutions[f"{method}_k{k}"] = result.sorted_cliques()
        stats[f"{method}_k{k}"] = json_safe(dict(result.stats))
    return {"lp_hub_solution": _digest(solutions), "lp_hub_stats": _digest(stats)}


def _maintainer_state(dyn: "DynamicDisjointCliques") -> tuple[list, list, list]:
    """A maintainer's solution (owner ids included), stats and
    candidate index, each canonically ordered."""
    index = dyn.index
    return (
        sorted((o, sorted(c)) for o, c in index.solution.items()),
        sorted(dyn.stats.items()),
        sorted((sorted(c), o) for c, o in index.owner_of_cand.items()),
    )


def dynamic_digests() -> dict[str, str]:
    """Digests of dynamic repair over a pinned mixed update stream:
    the solution (owner ids included), the stats and the candidate
    index after every 16-update batch and after a per-edge run."""
    from repro.dynamic import DynamicDisjointCliques, iter_batches, make_workload
    from repro.graph.generators import powerlaw_cluster

    start, updates = make_workload(
        powerlaw_cluster(300, 6, 0.8, seed=5), "mixed", 120, seed=9
    )
    states: dict[str, list] = {"solution": [], "stats": [], "index": []}

    def record(dyn: DynamicDisjointCliques) -> None:
        for part, value in zip(("solution", "stats", "index"), _maintainer_state(dyn)):
            states[part].append(value)

    for k in (3, 4):
        batched = DynamicDisjointCliques(start, k)
        record(batched)
        for chunk in iter_batches(updates, 16):
            batched.apply_batch(chunk)
            record(batched)
        per_edge = DynamicDisjointCliques(start, k)
        per_edge.apply(updates)
        record(per_edge)
    return {f"dynamic_{part}": _digest(seq) for part, seq in states.items()}


def rule_digests() -> dict[str, str]:
    """Digests of dynamic repair over batches on every side of the
    engine rule: the same three states after every batch of a pinned
    mixed stream cut into chunks of 20, 36, 12, 72 and 100 updates, at
    k = 3 and 4. Among its batches, the freed nodes and eligible
    inserted edges are each below ``AUTO_DIRTY_THRESHOLD`` but reach it
    together (on a wide and on a narrow patch), only one of them reaches
    it (on a wide and on a narrow patch), both reach it, and neither
    does."""
    from repro.dynamic import DynamicDisjointCliques, make_workload
    from repro.graph.generators import powerlaw_cluster

    start, updates = make_workload(
        powerlaw_cluster(400, 4, 0.9, seed=5), "mixed", 300, seed=9
    )
    sizes = (20, 36, 12, 72, 100)
    chunks, at = [], 0
    while at < len(updates):
        size = sizes[len(chunks) % len(sizes)]
        chunks.append(updates[at : at + size])
        at += size
    states: list[tuple[list, list, list]] = []
    for k in (3, 4):
        dyn = DynamicDisjointCliques(start, k)
        states.append(_maintainer_state(dyn))
        for chunk in chunks:
            dyn.apply_batch(chunk)
            states.append(_maintainer_state(dyn))
    return {
        f"dynamic_rule_{part}": _digest([state[i] for state in states])
        for i, part in enumerate(("solution", "stats", "index"))
    }


def build_digests() -> dict[str, str]:
    """Digests of the candidate-index build: each maintainer's state
    right after construction and after its first ``apply_batch([])``
    sweep, at k = 2-5 from ``lp`` and ``hg`` starts, on the start
    graphs of :func:`dynamic_digests` and :func:`rule_digests`."""
    from repro.dynamic import DynamicDisjointCliques, make_workload
    from repro.graph.generators import powerlaw_cluster

    starts = [
        make_workload(powerlaw_cluster(300, 6, 0.8, seed=5), "mixed", 120, seed=9)[0],
        make_workload(powerlaw_cluster(400, 4, 0.9, seed=5), "mixed", 300, seed=9)[0],
    ]
    states: list[tuple[list, list, list]] = []
    for start in starts:
        for k in (2, 3, 4, 5):
            for method in ("lp", "hg"):
                dyn = DynamicDisjointCliques(start, k, method=method)
                states.append(_maintainer_state(dyn))
                dyn.apply_batch([])
                states.append(_maintainer_state(dyn))
    return {
        "dynamic_build_solution": _digest([state[:2] for state in states]),
        "dynamic_build_index": _digest([state[2] for state in states]),
    }


def run_digests(run_dir: Path) -> dict[str, str]:
    """Digest of a bench run directory's order-bearing records."""
    metrics_path = run_dir / "metrics.jsonl"
    if not metrics_path.exists():
        raise SystemExit(f"no metrics.jsonl under {run_dir}")
    records = []
    for line in metrics_path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        records.append(
            {
                "suite": record.get("suite"),
                "cell": record.get("cell"),
                "status": record.get("status"),
                "gate": record.get("gate") or {},
            }
        )
    out = {"records": _digest(records)}
    manifest_path = run_dir / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        out["seeds"] = _digest(manifest.get("seeds"))
    out["combined"] = _digest(sorted(out.items()))
    return out


def main(argv: list[str]) -> int:
    if len(argv) >= 1 and argv[0] == "solve":
        digests = {
            **solve_digests(),
            **hub_digests(),
            **dynamic_digests(),
            **rule_digests(),
            **build_digests(),
        }
    elif len(argv) >= 2 and argv[0] == "run":
        digests = run_digests(Path(argv[1]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    for label, value in sorted(digests.items()):
        print(f"{label} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
