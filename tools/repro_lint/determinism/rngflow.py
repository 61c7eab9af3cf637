"""``rngflow``: every RNG construction must trace its seed to the caller.

The bench harness derives all stochastic inputs from the canonical seed
table (``repro.bench.workloads.SEEDS`` via ``seed_for``/``stream_seed``),
and the equivalence suites replay solves expecting bit-identical output.
One unseeded ``default_rng()`` — or one call into numpy's legacy
global-state API, whose hidden ``RandomState`` is shared across the
process — breaks replay silently. This rule makes seed provenance a
static property:

* **RNG constructions** (``np.random.default_rng``, ``Generator``, the
  bit generators, ``random.Random``, ``SeedSequence``) must receive a
  seed argument that is *traceable*: an integer literal, a parameter or
  local derived from one, a ``SEEDS[...]`` subscript, or a call to a
  seed helper (``seed_for``/``stream_seed``/``int``/arithmetic over
  traceable values). A missing or literal-``None`` seed fails — push
  the default to the caller as ``seed: int | None = None`` only if the
  ``None`` branch never reaches a construction in ``src/repro``.
* **Legacy global-state API** — ``np.random.<fn>()`` for anything other
  than the constructor surface (``default_rng``/``Generator``/bit
  generators/``SeedSequence``) fails: module-level state is invisible
  to checkpoint/restore and to worker processes.
* **Stdlib module-level ``random.<fn>()``** fails for the same reason;
  construct a ``random.Random(seed)`` instance instead.
* **Ambient entropy** — ``os.urandom``, ``secrets.*``, ``uuid.uuid4``
  and ``time``-module reads *used as seeds* fail anywhere in
  ``src/repro``: entropy is never an acceptable seed for a component
  whose outputs the suites pin.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from tools.repro_lint.concurrency import model as _cmodel
from tools.repro_lint.core import Violation, iter_source_files
from tools.repro_lint.determinism.model import (
    call_head,
    dotted_name,
    iter_analyzable_functions,
)

RULE = "rngflow"

#: The seedable constructor surface of ``numpy.random`` — the only
#: attributes of the module the rule permits to be called.
_NP_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "SeedSequence",
        "BitGenerator",
        "RandomState",  # itself checked as a construction below
    }
)

#: Constructor heads that take a seed as their first argument.
_SEEDED_HEADS = frozenset(
    {
        "default_rng",
        "Random",
        "RandomState",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "SeedSequence",
    }
)

#: Call heads that launder a traceable value into another traceable one.
_SEED_HELPERS = frozenset({"seed_for", "stream_seed", "int", "abs", "hash_seed"})

#: Entropy sources that must not seed anything in ``src/repro``.
_ENTROPY_CALLS = frozenset(
    {
        "urandom",
        "uuid4",
        "uuid1",
        "token_bytes",
        "token_hex",
        "randbits",
        "getrandbits",
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
    }
)

#: Modules whose attribute calls count as entropy (with any head above).
_ENTROPY_MODULES = frozenset({"os", "secrets", "uuid", "time"})


def _violation(func: _cmodel.FuncInfo, line: int, message: str) -> Violation:
    return Violation(rule=RULE, path=func.path, line=line, message=message)


def _module_target(imports: dict[str, str], expr: ast.expr) -> str | None:
    """Resolve ``expr`` to an imported module path (``numpy.random``)."""
    name = dotted_name(expr)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    target = imports.get(head, head)
    return f"{target}.{rest}" if rest else target


class _Checker:
    def __init__(self, model: _cmodel.RepoModel, func: _cmodel.FuncInfo) -> None:
        self.model = model
        self.func = func
        self.imports = model.module_imports.get(func.module, {})
        #: Locals whose value came from an entropy call.
        self.entropy_locals: set[str] = set()
        #: Locals assigned from a traceable expression.
        self.traceable_locals: set[str] = set()
        args = func.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            self.traceable_locals.add(arg.arg)
        self.out: list[Violation] = []

    def _is_entropy(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.entropy_locals
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            head = expr.func.attr
            module = _module_target(self.imports, expr.func.value)
            return head in _ENTROPY_CALLS and (
                module in _ENTROPY_MODULES or module == "time"
            )
        return False

    def _traceable(self, expr: ast.expr) -> bool:
        """Is ``expr`` derived from a caller-supplied / canonical seed?"""
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, int) and not isinstance(
                expr.value, bool
            )
        if isinstance(expr, ast.Name):
            return (
                expr.id in self.traceable_locals
                and expr.id not in self.entropy_locals
            )
        if isinstance(expr, ast.Attribute):
            # self.seed / config.seed style provenance: accept attribute
            # reads — the attribute's own initialisation is checked where
            # it is assigned.
            return not self._is_entropy(expr)
        if isinstance(expr, ast.Subscript):
            # SEEDS["lp"] and friends: any subscript of a non-entropy
            # base is provenance-carrying data.
            return self._traceable_base(expr.value)
        if isinstance(expr, ast.BinOp):
            return self._traceable(expr.left) and self._traceable(expr.right)
        if isinstance(expr, ast.Call):
            if self._is_entropy(expr):
                return False
            head = call_head(expr)
            if head in _SEED_HELPERS:
                return all(self._traceable(a) for a in expr.args)
            if head == "SeedSequence":
                return all(self._traceable(a) for a in expr.args)
            return False
        if isinstance(expr, ast.IfExp):
            return self._traceable(expr.body) and self._traceable(expr.orelse)
        return False

    def _traceable_base(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id not in self.entropy_locals
        if isinstance(expr, ast.Attribute):
            return True
        return False

    def run(self) -> list[Violation]:
        # Own-scope breadth-first walk (source order within each level):
        # nested defs are analyzed as their own FuncInfo entries with
        # their own parameter scope, so don't descend into them.
        queue: deque[ast.AST] = deque(ast.iter_child_nodes(self.func.node))
        while queue:
            node = queue.popleft()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(node, ast.Assign):
                self._bind(node.targets, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._bind([node.target], node.value)
            elif isinstance(node, ast.Call):
                self._check_call(node)
            queue.extend(ast.iter_child_nodes(node))
        return self.out

    def _bind(self, targets: list[ast.expr], value: ast.expr) -> None:
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if self._is_entropy(value):
                self.entropy_locals.add(target.id)
                self.traceable_locals.discard(target.id)
            elif self._traceable(value):
                self.traceable_locals.add(target.id)
                self.entropy_locals.discard(target.id)

    def _check_call(self, call: ast.Call) -> None:
        head = call_head(call)
        fn = call.func
        module = (
            _module_target(self.imports, fn.value)
            if isinstance(fn, ast.Attribute)
            else None
        )
        # Legacy numpy global-state API: np.random.shuffle, np.random.rand...
        if module == "numpy.random" and head not in _NP_CONSTRUCTORS:
            self.out.append(
                _violation(
                    self.func,
                    call.lineno,
                    f"legacy global-state numpy.random.{head}() — hidden "
                    "module state breaks replay and checkpoint/restore; "
                    "construct np.random.default_rng(seed) and thread it",
                )
            )
            return
        # Stdlib module-level random.<fn>(): same hidden state.
        if module == "random" and head != "Random":
            self.out.append(
                _violation(
                    self.func,
                    call.lineno,
                    f"module-level random.{head}() uses the shared global "
                    "RNG — construct random.Random(seed) and thread it",
                )
            )
            return
        # RNG constructions must have a traceable seed.
        is_construction = head in _SEEDED_HEADS and (
            module in ("numpy.random", "random", None)
            or isinstance(fn, ast.Name)
        )
        if is_construction:
            seed: ast.expr | None = None
            if call.args:
                seed = call.args[0]
            else:
                kw = next(
                    (k for k in call.keywords if k.arg in ("seed", "x")), None
                )
                seed = kw.value if kw is not None else None
            if seed is None or (
                isinstance(seed, ast.Constant) and seed.value is None
            ):
                self.out.append(
                    _violation(
                        self.func,
                        call.lineno,
                        f"{head}() constructed without a seed — derive one "
                        "from the caller or repro.bench.workloads.SEEDS",
                    )
                )
            elif self._is_entropy(seed):
                self.out.append(
                    _violation(
                        self.func,
                        call.lineno,
                        f"{head}() seeded from ambient entropy — seeds must "
                        "trace to a caller-supplied value or SEEDS",
                    )
                )
            elif not self._traceable(seed):
                self.out.append(
                    _violation(
                        self.func,
                        call.lineno,
                        f"{head}() seed is not traceable to a caller-"
                        "supplied value, SEEDS, or a seed helper "
                        "(seed_for/stream_seed)",
                    )
                )


def _violations(model: _cmodel.RepoModel) -> Iterator[Violation]:
    seen: set[tuple[str, int, str]] = set()
    for func in iter_analyzable_functions(model):
        for violation in _Checker(model, func).run():
            key = (violation.path, violation.line, violation.message)
            if key not in seen:
                seen.add(key)
                yield violation
    # Nested functions are reachable from model.functions too; cover them
    # so fixture lambdas/closures don't dodge the rule.
    for func in model.functions.values():
        if func.parent is not None and ".<locals>." in func.key:
            for violation in _Checker(model, func).run():
                key = (violation.path, violation.line, violation.message)
                if key not in seen:
                    seen.add(key)
                    yield violation


def check_rngflow_files(files: Sequence[Path]) -> list[Violation]:
    """Run the check over an explicit file list (fixture mode)."""
    model = _cmodel.build_model(list(files))
    return list(_violations(model))


def check_rngflow(root: Path | None = None) -> Iterable[Violation]:
    """Project rule: RNG seed provenance over ``src/repro``."""
    return check_rngflow_files(list(iter_source_files(root)))
