"""``migration``: values crossing a process boundary must survive it.

Three kinds of boundary exist in this repository and each has a
serialisation contract this rule type-traces:

``state_dict()`` / ``checkpoint()`` payloads
    Documented as JSON-safe (they feed ``json.dumps`` and travel between
    server processes). Placing a lock, a substrate object (``Graph``,
    ``Session``, ``OrientedCSR``, ...), a bound method or a lambda in
    the returned payload breaks the contract — those values either do
    not serialise at all or smuggle process-local state (lock ownership,
    mmap'd arrays) into a context where it is meaningless.

``multiprocessing`` pool workers
    ``pool.map``-family callables must be module-level functions:
    lambdas, nested closures and bound methods are unpicklable under
    the ``spawn`` start method, and even under ``fork`` a bound method
    drags its whole instance (locks included) into the child.

``Process(target=..., args=...)``
    Same callable discipline for ``target``; every element of ``args``
    is additionally checked for unpicklable values — locks, substrate
    objects, lambdas, bound methods, and ``Callable``-typed parameters
    whose provenance the analyzer cannot see. A ``Callable`` argument is
    only safe when the surrounding code guarantees a ``fork`` context
    (memory inheritance instead of pickling); such sites carry an
    explicit ``# repro-lint: ignore=migration`` waiver next to the
    guard.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from tools.repro_lint.concurrency import model as _model
from tools.repro_lint.core import Violation, iter_source_files

RULE = "migration"

#: Functions whose return payload must be JSON-/pickle-safe.
_PAYLOAD_FUNCS = {"state_dict", "checkpoint"}

#: Pool dispatch methods whose first callable crosses the boundary.
_POOL_METHODS = {
    "map",
    "starmap",
    "imap",
    "imap_unordered",
    "map_async",
    "starmap_async",
    "apply",
    "apply_async",
}

#: Type refs that never survive a process boundary (process-local
#: state: substrate caches, sessions, threads, live handles).
_UNPICKLABLE_TYPES = {
    "Graph",
    "DynamicGraph",
    "OrientedGraph",
    "OrientedCSR",
    "Session",
    "Preprocessing",
    "SessionPool",
    "Scheduler",
    "Ticket",
    "DynamicFeed",
    "Server",
    "TextIO",
    "BinaryIO",
    "IO",
    "Condition",
    "Thread",
    "Event",
    "TrackedLock",
    "TrackedRLock",
}


def _walk_with_parent(
    root: ast.AST,
) -> Iterator[tuple[ast.AST, ast.AST | None]]:
    """Yield (node, parent) over a subtree, root first."""
    stack: list[tuple[ast.AST, ast.AST | None]] = [(root, None)]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        for child in ast.iter_child_nodes(node):
            stack.append((child, node))


def _is_chain_position(node: ast.AST, parent: ast.AST | None) -> bool:
    """True when ``node`` is consumed by a larger access, not a value.

    ``self.engine.state_dict()`` must not flag ``self.engine``: the
    attribute is the base of a call chain, so only the chain's *result*
    lands in the payload.
    """
    if isinstance(parent, ast.Attribute) and parent.value is node:
        return True
    if isinstance(parent, ast.Call) and parent.func is node:
        return True
    return False


def _bad_value(
    node: ast.AST,
    parent: ast.AST | None,
    env: "_model._TypeEnv",
) -> str | None:
    """Describe why ``node`` cannot cross a process boundary, or None."""
    func = env.func
    if isinstance(node, ast.Lambda):
        if isinstance(parent, (ast.Dict, ast.List, ast.Tuple, ast.Set, ast.Return)):
            return "a lambda (unpicklable, not JSON-safe)"
        return None
    if not isinstance(node, ast.expr) or not isinstance(
        getattr(node, "ctx", None), ast.Load
    ):
        return None
    if _is_chain_position(node, parent):
        return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        label = _model._lock_label_of(node, env, func)
        if label is not None:
            return f"the lock {label} (lock state is process-local)"
    if isinstance(node, ast.Attribute):
        cls = env.class_of(env.resolve_type(node.value))
        if cls is not None:
            ref = cls.attr_types.get(node.attr)
            if isinstance(ref, str) and ref in _UNPICKLABLE_TYPES:
                return f"{ref} instance {_describe(node)} (process-local state)"
            if node.attr in cls.methods and node.attr not in cls.properties:
                return (
                    f"bound method {_describe(node)} "
                    "(drags the whole instance across the boundary)"
                )
    ref = env.resolve_type(node)
    if isinstance(ref, str) and ref in _UNPICKLABLE_TYPES:
        return f"{ref} value {_describe(node)} (process-local state)"
    return None


def _describe(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on exprs
        return "<expr>"


def _payload_violations(
    func: _model.FuncInfo, model: _model.RepoModel
) -> Iterator[Violation]:
    env = _model._TypeEnv(model, func)
    for stmt in ast.walk(func.node):
        if not isinstance(stmt, ast.Return) or stmt.value is None:
            continue
        for node, parent in _walk_with_parent(stmt.value):
            reason = _bad_value(node, parent if parent is not None else stmt, env)
            if reason is not None:
                yield Violation(
                    rule=RULE,
                    path=func.path,
                    line=getattr(node, "lineno", func.node.lineno),
                    message=(
                        f"{func.name} payload includes {reason} — "
                        "checkpoints must be JSON-safe; serialise a "
                        "fingerprint or rebuild the value on restore "
                        "(see docs/development.md)"
                    ),
                )


def _worker_problem(expr: ast.expr, env: "_model._TypeEnv") -> str | None:
    """Why ``expr`` is unsafe as a cross-process callable, or None."""
    if isinstance(expr, ast.Lambda):
        return "a lambda"
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name):
            target = env._import_target(expr.value.id)
            if target is not None and target[1] == "module":
                return None  # module.worker — module-level, picklable.
        return f"the bound method {_describe(expr)}"
    if not isinstance(expr, ast.Name):
        return None
    scope: _model.FuncInfo | None = env.func
    while scope is not None:
        if expr.id in scope.nested:
            return f"the nested function {expr.id} (closures are unpicklable)"
        scope = scope.parent
    if env.vars.get(expr.id) == "Callable":
        return (
            f"the Callable-typed parameter {expr.id} "
            "(provenance unknown; safe only under a fork context)"
        )
    return None


def _boundary_violation(
    func: _model.FuncInfo,
    line: int,
    boundary: str,
    reason: str,
) -> Violation:
    return Violation(
        rule=RULE,
        path=func.path,
        line=line,
        message=(
            f"{func.name} passes {reason} across a process boundary "
            f"({boundary}) — workers must be module-level functions and "
            "arguments picklable (see docs/development.md)"
        ),
    )


def _pool_and_process_violations(
    func: _model.FuncInfo, model: _model.RepoModel
) -> Iterator[Violation]:
    env = _model._TypeEnv(model, func)
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        # pool.map(worker, iterable) and friends.
        if isinstance(fn, ast.Attribute) and fn.attr in _POOL_METHODS:
            if not _poolish(fn.value, env):
                continue
            workers = list(node.args[:1])
            workers += [kw.value for kw in node.keywords if kw.arg == "func"]
            for worker in workers:
                problem = _worker_problem(worker, env)
                if problem is not None:
                    yield _boundary_violation(
                        func, node.lineno, f"pool.{fn.attr}", problem
                    )
            for extra in node.args[1:]:
                reason = _bad_value(extra, node, env)
                if reason is not None:
                    yield _boundary_violation(
                        func, node.lineno, f"pool.{fn.attr}", reason
                    )
            continue
        # Process(target=..., args=(...)).
        name = fn.attr if isinstance(fn, ast.Attribute) else (
            fn.id if isinstance(fn, ast.Name) else None
        )
        if name != "Process":
            continue
        for kw in node.keywords:
            if kw.arg == "target":
                problem = _worker_problem(kw.value, env)
                if problem is not None:
                    yield _boundary_violation(
                        func, node.lineno, "Process target", problem
                    )
            elif kw.arg == "args" and isinstance(kw.value, (ast.Tuple, ast.List)):
                for element in kw.value.elts:
                    reason = _bad_value(element, kw.value, env)
                    if (
                        reason is None
                        and isinstance(element, ast.Name)
                        and env.vars.get(element.id) == "Callable"
                    ):
                        reason = _worker_problem(element, env)
                    if reason is not None:
                        yield _boundary_violation(
                            func, node.lineno, "Process args", reason
                        )


def _poolish(receiver: ast.expr, env: "_model._TypeEnv") -> bool:
    """Whether the receiver looks like a multiprocessing pool."""
    if env.resolve_type(receiver) == "Pool":
        return True
    if isinstance(receiver, ast.Name):
        return "pool" in receiver.id.lower()
    if isinstance(receiver, ast.Attribute):
        return "pool" in receiver.attr.lower()
    return False


def _violations(model: _model.RepoModel) -> Iterator[Violation]:
    seen: set[tuple[str, int, str]] = set()
    for func in model.functions.values():
        if func.parent is not None:
            continue  # nested defs are walked within their parent.
        emitted: Iterable[Violation] = ()
        if func.name in _PAYLOAD_FUNCS:
            emitted = _payload_violations(func, model)
        for violation in emitted:
            key = (violation.path, violation.line, violation.message)
            if key not in seen:
                seen.add(key)
                yield violation
        for violation in _pool_and_process_violations(func, model):
            key = (violation.path, violation.line, violation.message)
            if key not in seen:
                seen.add(key)
                yield violation


def check_migration_files(files: Sequence[Path]) -> list[Violation]:
    """Run the check over an explicit file list (fixture mode)."""
    model = _model.build_model(list(files))
    return list(_violations(model))


def check_migration(root: Path | None = None) -> Iterable[Violation]:
    """Project rule: process-boundary safety over ``src/repro``."""
    return check_migration_files(list(iter_source_files(root)))
