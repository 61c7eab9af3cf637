"""Stats-key discipline: counters must come from the canonical key set.

Every engine, maintainer and serving component reports progress through
string-keyed ``stats`` dictionaries that flow — unvalidated — into
NDJSON responses, benchmark CSVs and the CLI's ``--json`` output.
Consumers aggregate by key, so a typo (``"cache_hit"`` for
``"cache_hits"``) silently forks a counter instead of failing: the old
key flatlines, the new one is invisible to every existing dashboard or
test assertion.

The rule collects, per module, every string literal used as a ``stats``
key — subscript reads/writes (``stats["x"]``, ``self.stats["x"]``),
``stats.get("x", ...)`` / ``stats.setdefault("x", ...)`` /
``stats.update({...})`` calls, and the keys of dict literals assigned
to a ``stats`` name or passed as a ``stats=`` keyword — and requires
each to appear in :data:`CANONICAL_KEYS`. Introducing a genuinely new counter is a
one-line addition to that set, which makes the vocabulary growth
reviewable instead of accidental.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lint.core import ModuleInfo, Violation

RULE = "statskeys"

#: Every stats counter the repository's consumers know about. Grouped by
#: producer; keep sorted within each group.
CANONICAL_KEYS: frozenset[str] = frozenset(
    {
        # Preprocessing / session cache (repro.core.session)
        "cache_hits",
        "clique_listings",
        "core_decompositions",
        "count_passes",
        "csr_builds",
        "orientations",
        "score_passes",
        # Greedy engines (repro.core.lightweight, repro.core.basic)
        "branches_pruned",
        "findmin_calls",
        "findone_calls",
        "heap_pops",
        "heap_pushes",
        "nodes_processed",
        "stale_pops",
        "warm_seeded",
        # Exact solvers (repro.core.exact, repro.core.exact_bb)
        "clique_graph_edges",
        "clique_graph_nodes",
        "nodes_expanded",
        # Clique store (repro.cliques.store_all)
        "cliques_stored",
        "cliques_taken",
        # Local-search swaps (repro.core / repro.dynamic.swap)
        "pops",
        "swap_gain",
        "swaps",
        # Dynamic maintainer (repro.dynamic.maintainer)
        "applied",
        "batches",
        "coalesced_updates",
        "deletions",
        "destroyed_cliques",
        "direct_additions",
        "flushes",
        "insertions",
        # Batched-update buffer flush triggers
        "age_flushes",
        "size_flushes",
        # Serving layer (repro.serve.pool / scheduler / feeds)
        "budget_partials",
        "cancelled",
        "completed",
        "deadline_partials",
        "evictions",
        "failed",
        "hits",
        "misses",
        "preemptions",
        "pushed",
        "shed_deadline",
        "shed_overload",
        "submitted",
        # Bench runner summaries (repro.bench.runner)
        "cells_error",
        "cells_ok",
        "seconds_total",
        "suites_run",
    }
)


def _is_stats_expr(node: ast.expr) -> bool:
    """Whether ``node`` names a stats mapping (``stats``/``self.stats``…)."""
    if isinstance(node, ast.Name):
        return "stats" in node.id
    if isinstance(node, ast.Attribute):
        return "stats" in node.attr
    return False


def _iter_key_literals(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """Yield (line, key) for every string literal used as a stats key."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_stats_expr(node.value):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield key.lineno, key.value
        elif isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr in ("get", "setdefault", "pop")
                and _is_stats_expr(fn.value)
                and node.args
            ):
                key = node.args[0]
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield key.lineno, key.value
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr == "update"
                and _is_stats_expr(fn.value)
                and node.args
                and isinstance(node.args[0], ast.Dict)
            ):
                yield from _dict_keys(node.args[0])
            for kw in node.keywords:
                if kw.arg == "stats" and isinstance(kw.value, ast.Dict):
                    yield from _dict_keys(kw.value)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            if any(_is_stats_expr(target) for target in node.targets):
                yield from _dict_keys(node.value)
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.value, ast.Dict)
            and _is_stats_expr(node.target)
        ):
            yield from _dict_keys(node.value)


def _dict_keys(node: ast.Dict) -> Iterator[tuple[int, str]]:
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            yield key.lineno, key.value


def check_stats_keys(module: ModuleInfo) -> Iterator[Violation]:
    """Flag stats keys outside the canonical vocabulary."""
    if not module.name.startswith("repro"):
        return
    for line, key in _iter_key_literals(module.tree):
        if key in CANONICAL_KEYS:
            continue
        yield Violation(
            rule=RULE,
            path=module.relpath,
            line=line,
            message=(
                f"stats key {key!r} is not in the canonical key set — add "
                "it to tools.repro_lint.rules.stats_keys.CANONICAL_KEYS if "
                "it is a deliberate new counter, or fix the typo"
            ),
        )
