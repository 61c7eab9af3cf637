"""repro-lint: repo-specific static analysis gating CI.

The correctness story of this repository — bit-identical solutions and
stats across engines and reference implementations, Section V invariants after every
dynamic batch, JSON-safe cross-process checkpoints — rests on contracts
that ordinary linters cannot see. ``repro_lint`` encodes them as
AST-based (and one runtime-introspection) rules, each with a committed
pass/fail fixture corpus proving it detects its target defect class:

``layering``
    The import DAG contract ``errors -> graph -> {cliques, hypergraph,
    mis} -> core -> {matching, dynamic} -> analysis -> serve -> bench ->
    cli``. Module-level imports must point strictly down the ranking;
    deferred (function-body) imports may go upward only when allow-listed.
    Violations name the offending edge.

``locking``
    Cache-lock discipline: in any class whose ``__init__`` creates a
    ``threading.Lock``/``RLock``, every write to an ``__init__``-declared
    attribute outside ``__init__`` must happen under that lock. This is
    the race class the serving layer's barrier tests catch only
    probabilistically.

``jsonsafety``
    Checkpoint/protocol JSON-safety: expressions reaching
    ``json.dumps``-bound structures (the NDJSON protocol encoder, task
    ``checkpoint()`` dicts, engine ``state_dict()`` payloads) must not be
    numpy scalars/arrays, and ``dataclasses.asdict`` payloads must pass
    through :func:`repro.jsonsafe.json_safe`.

``registry``
    Registry consistency: resumable methods register an engine factory
    with the canonical ``(prep, k, opts, warm_start=None)`` signature,
    and option dataclasses are fully defaulted and cover every engine
    kwarg (capability flags derive from these, so none is declared).

``statskeys``
    Stats-key discipline: stats dicts only use keys from the canonical
    set in :mod:`tools.repro_lint.rules.stats_keys`, so the
    engine-equivalence differential diffs stay meaningful.

``annotations``
    Typing completeness: every function in ``src/repro`` carries a full
    signature annotation (parameters and return), the local stand-in for
    the ``mypy --strict`` gate that CI runs with the real tool.

``python -m tools.repro_lint`` runs every rule plus the folded legacy
gates (docstring coverage, doc-link resolution) and — when installed —
``mypy --strict src/repro`` and ``ruff check``. Failures are compared
against the ratchet baseline in ``tools/repro_lint/baseline.json``:
violations not in the baseline fail the run; stale baseline entries are
reported so the file only ever shrinks (``--update-baseline`` rewrites
it). See ``docs/development.md`` for the full workflow.
"""

from tools.repro_lint.core import LintReport, Violation, run_rules

__all__ = ["LintReport", "Violation", "run_rules"]
