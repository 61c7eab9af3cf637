"""``envdep``: environment may steer *scheduling*, never *results*.

The serving scheduler and the bench harness read the environment on
purpose — worker counts from ``os.cpu_count()``, deadlines from
``time.monotonic()``, knobs from env vars. That is fine
*as long as* the values only decide how fast work happens, not what the
work produces: the equivalence suites pin solutions, stats and
checkpoint bytes across worker counts and hash seeds, so an
environment read that leaks into any of those is a reproducibility
defect even when every machine in CI happens to agree today.

The rule taints local values produced by environment sources:

* ``os.cpu_count`` / ``multiprocessing.cpu_count``
* ``multiprocessing.get_start_method`` / ``get_all_start_methods``
* ``time.monotonic`` / ``perf_counter`` / ``time`` / ``process_time``
  (and their ``_ns`` forms)
* ``os.getenv`` / ``os.environ.get`` / ``os.environ[...]``

propagates the taint through assignments and arithmetic, summarises
functions whose *return value* is env-derived (interprocedural fixpoint
over the shared :class:`RepoModel` call graph), and fails when a
tainted value reaches a **result sink**:

* a value in the dict payload returned by a ``checkpoint``/
  ``state_dict`` method (checkpoints must restore bit-identically on
  any machine);
* a write to a pinned stats key — every key in
  :data:`~tools.repro_lint.rules.stats_keys.CANONICAL_KEYS` except the
  wall-clock ``seconds_total`` aggregate;
* an argument to ``frozenset(...)`` or to ``.append``/``.add`` on a
  solution-carrying receiver (``cliques``/``solution``/``selected``).

Scheduling uses (chunk sizes, timeouts, worker counts, deadlines,
elapsed-time reporting outside pinned stats) are untouched. A sink that
is provably scheduling-only despite its shape carries a
``# repro-lint: ignore=envdep`` waiver with the argument.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from tools.repro_lint.concurrency import model as _cmodel
from tools.repro_lint.core import Violation, iter_source_files
from tools.repro_lint.determinism.model import dotted_name

RULE = "envdep"

#: ``module.attr`` call targets whose result depends on the environment.
_ENV_CALLS = frozenset(
    {
        "os.cpu_count",
        "multiprocessing.cpu_count",
        "multiprocessing.get_start_method",
        "multiprocessing.get_all_start_methods",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.time",
        "time.time_ns",
        "time.process_time",
        "time.process_time_ns",
        "os.getenv",
        "os.environ.get",
    }
)

#: Bare-name call heads that are env sources when imported directly
#: (``from os import cpu_count``, ``from time import monotonic``).
_ENV_HEADS = frozenset(
    {
        "cpu_count",
        "get_start_method",
        "get_all_start_methods",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "getenv",
    }
)

def _pinned_stats() -> frozenset[str]:
    """Stats keys the equivalence/bench suites pin exactly.

    Wall-clock aggregates are the scheduling exception. Imported lazily:
    ``rules.stats_keys`` lives under the ``rules`` package whose
    ``__init__`` imports this module (registry wiring), so a module-level
    import would be circular.
    """
    from tools.repro_lint.rules.stats_keys import CANONICAL_KEYS

    return CANONICAL_KEYS - {"seconds_total"}

#: Method names whose returned dict payload must be environment-free.
_PAYLOAD_FUNCS = frozenset({"checkpoint", "state_dict", "to_payload"})

#: Receiver name fragments that mark a solution-carrying container.
_SOLUTION_NAMES = ("clique", "solution", "selected")


def _violation(func: _cmodel.FuncInfo, line: int, message: str) -> Violation:
    return Violation(rule=RULE, path=func.path, line=line, message=message)


def _is_env_call(
    imports: dict[str, str], expr: ast.expr, env_returns: set[str],
    resolver: "_Resolver",
) -> str | None:
    """If ``expr`` is an environment-source call, name the source."""
    if not isinstance(expr, ast.Call):
        return None
    fn = expr.func
    name = dotted_name(fn)
    if name is not None:
        head, _, rest = name.partition(".")
        resolved = imports.get(head, head)
        full = f"{resolved}.{rest}" if rest else resolved
        if full in _ENV_CALLS:
            return full
        # os.environ[...] handled at the Subscript level; .get on environ:
        if full.endswith("environ.get"):
            return "os.environ.get"
    if isinstance(fn, ast.Name) and fn.id in _ENV_HEADS:
        target = imports.get(fn.id)
        if target is None or any(
            target.startswith(mod) for mod in ("os", "time", "multiprocessing")
        ):
            return fn.id
    # Interprocedural: a repo function summarised as returning env state.
    for key in resolver.resolve(expr):
        if key in env_returns:
            return f"{key}() (returns an environment-derived value)"
    return None


def _is_environ_subscript(imports: dict[str, str], expr: ast.expr) -> bool:
    if not isinstance(expr, ast.Subscript):
        return False
    name = dotted_name(expr.value)
    if name is None:
        return False
    head, _, rest = name.partition(".")
    resolved = imports.get(head, head)
    full = f"{resolved}.{rest}" if rest else resolved
    return full.endswith("os.environ") or full == "environ"


class _Resolver:
    """Thin memoising wrapper around ``_TypeEnv.resolve_call``."""

    def __init__(self, model: _cmodel.RepoModel, func: _cmodel.FuncInfo) -> None:
        self.env = _cmodel._TypeEnv(model, func)

    def resolve(self, call: ast.Call) -> tuple[str, ...]:
        try:
            return tuple(self.env.resolve_call(call))
        except Exception:  # pragma: no cover - resolution is best-effort
            return ()


def _env_tainted_returns(model: _cmodel.RepoModel) -> set[str]:
    """Fixpoint: function keys whose return value is environment-derived.

    One-level propagation per round: a function returning a tainted
    local, an env call, or a call to an already-summarised function
    joins the set; iterate until stable.
    """
    summary: set[str] = set()
    changed = True
    while changed:
        changed = False
        for func in model.functions.values():
            if func.key in summary:
                continue
            if _returns_env(model, func, summary):
                summary.add(func.key)
                changed = True
    return summary


def _returns_env(
    model: _cmodel.RepoModel, func: _cmodel.FuncInfo, summary: set[str]
) -> bool:
    imports = model.module_imports.get(func.module, {})
    resolver = _Resolver(model, func)
    tainted: set[str] = set()
    returns_tainted = False
    queue: deque[ast.AST] = deque(ast.iter_child_nodes(func.node))
    while queue:
        node = queue.popleft()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if _expr_tainted(node.value, imports, tainted, summary, resolver):
                for target in targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
        elif isinstance(node, ast.Return) and node.value is not None:
            if _expr_tainted(node.value, imports, tainted, summary, resolver):
                returns_tainted = True
        queue.extend(ast.iter_child_nodes(node))
    return returns_tainted


def _expr_tainted(
    expr: ast.expr,
    imports: dict[str, str],
    tainted: set[str],
    env_returns: set[str],
    resolver: _Resolver,
) -> bool:
    """Whether any part of ``expr`` carries environment taint."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in tainted:
            return True
        if _is_env_call(imports, node, env_returns, resolver) is not None:
            return True
        if _is_environ_subscript(imports, node):
            return True
    return False


class _Checker:
    def __init__(
        self,
        model: _cmodel.RepoModel,
        func: _cmodel.FuncInfo,
        env_returns: set[str],
    ) -> None:
        self.model = model
        self.func = func
        self.env_returns = env_returns
        self.imports = model.module_imports.get(func.module, {})
        self.resolver = _Resolver(model, func)
        self.tainted: set[str] = set()
        self.out: list[Violation] = []

    def _tainted(self, expr: ast.expr) -> bool:
        return _expr_tainted(
            expr, self.imports, self.tainted, self.env_returns, self.resolver
        )

    def run(self) -> list[Violation]:
        queue: deque[ast.AST] = deque(ast.iter_child_nodes(self.func.node))
        while queue:
            node = queue.popleft()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                if node.value is not None:
                    self._check_stats_write(node)
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    if self._tainted(node.value):
                        for target in targets:
                            if isinstance(target, ast.Name):
                                self.tainted.add(target.id)
            elif isinstance(node, ast.AugAssign):
                self._check_stats_augwrite(node)
            elif isinstance(node, ast.Return) and node.value is not None:
                self._check_payload_return(node)
            elif isinstance(node, ast.Call):
                self._check_call(node)
            queue.extend(ast.iter_child_nodes(node))
        return self.out

    # -- sinks ---------------------------------------------------------

    def _pinned_stats_target(self, target: ast.expr) -> str | None:
        if not isinstance(target, ast.Subscript):
            return None
        base = target.value
        is_stats = (
            isinstance(base, ast.Name) and "stats" in base.id
        ) or (isinstance(base, ast.Attribute) and "stats" in base.attr)
        if not is_stats:
            return None
        key = target.slice
        if isinstance(key, ast.Constant) and key.value in _pinned_stats():
            return str(key.value)
        return None

    def _check_stats_write(self, node: ast.Assign | ast.AnnAssign) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        assert node.value is not None
        for target in targets:
            key = self._pinned_stats_target(target)
            if key is not None and self._tainted(node.value):
                self.out.append(
                    _violation(
                        self.func,
                        node.value.lineno,
                        f'environment-derived value written to pinned stats '
                        f'key "{key}" — the equivalence suites pin this '
                        "counter exactly; keep environment reads in "
                        "scheduling-only state",
                    )
                )

    def _check_stats_augwrite(self, node: ast.AugAssign) -> None:
        key = self._pinned_stats_target(node.target)
        if key is not None and self._tainted(node.value):
            self.out.append(
                _violation(
                    self.func,
                    node.value.lineno,
                    f'environment-derived value accumulated into pinned '
                    f'stats key "{key}" — pinned counters must be '
                    "machine-independent",
                )
            )

    def _check_payload_return(self, node: ast.Return) -> None:
        if self.func.name not in _PAYLOAD_FUNCS:
            return
        value = node.value
        assert value is not None
        if isinstance(value, ast.Dict):
            for key, val in zip(value.keys, value.values):
                if self._tainted(val):
                    label = (
                        repr(key.value)
                        if isinstance(key, ast.Constant)
                        else "<computed>"
                    )
                    self.out.append(
                        _violation(
                            self.func,
                            val.lineno,
                            f"environment-derived value in {self.func.name}() "
                            f"payload key {label} — checkpoints must restore "
                            "bit-identically on any machine",
                        )
                    )
        elif self._tainted(value):
            self.out.append(
                _violation(
                    self.func,
                    value.lineno,
                    f"environment-derived value returned from "
                    f"{self.func.name}() — checkpoint/state payloads must "
                    "be machine-independent",
                )
            )

    def _check_call(self, call: ast.Call) -> None:
        fn = call.func
        head = fn.id if isinstance(fn, ast.Name) else None
        if head == "frozenset" and call.args and self._tainted(call.args[0]):
            self.out.append(
                _violation(
                    self.func,
                    call.lineno,
                    "environment-derived value reaches frozenset() — clique "
                    "payloads must not encode machine state",
                )
            )
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in ("append", "add")
            and call.args
        ):
            receiver = fn.value
            rec_name = (
                receiver.id
                if isinstance(receiver, ast.Name)
                else receiver.attr
                if isinstance(receiver, ast.Attribute)
                else ""
            )
            if any(frag in rec_name for frag in _SOLUTION_NAMES):
                if self._tainted(call.args[0]):
                    self.out.append(
                        _violation(
                            self.func,
                            call.lineno,
                            f"environment-derived value .{fn.attr}()-ed onto "
                            f"solution container '{rec_name}' — results must "
                            "not depend on the environment",
                        )
                    )


def _violations(model: _cmodel.RepoModel) -> Iterator[Violation]:
    env_returns = _env_tainted_returns(model)
    seen: set[tuple[str, int, str]] = set()
    for func in model.functions.values():
        for violation in _Checker(model, func, env_returns).run():
            key = (violation.path, violation.line, violation.message)
            if key not in seen:
                seen.add(key)
                yield violation


def check_envdep_files(files: Sequence[Path]) -> list[Violation]:
    """Run the check over an explicit file list (fixture mode)."""
    model = _cmodel.build_model(list(files))
    return list(_violations(model))


def check_envdep(root: Path | None = None) -> Iterable[Violation]:
    """Project rule: environment/result separation over ``src/repro``."""
    return check_envdep_files(list(iter_source_files(root)))
