"""Registry metadata consistency (runtime introspection).

The solver registry is the single source of capability truth: the
scheduler admits deadlines, the task layer opens engines and the serving
layer forwards budgets based purely on :class:`repro.core.registry.Method`,
whose capabilities derive from its options class and its engine. A
malformed registration fails at the worst possible time — a request
deep inside a worker thread — so this rule imports the live registry
and checks the invariants statically checkable nowhere else:

* tags are lowercase and summaries non-empty;
* every options class derives from ``SolveOptions`` with fully
  defaulted fields (``parse_options({})`` must succeed);
* every engine factory has the canonical signature ``(prep, k, opts)``
  plus a ``warm_start`` keyword, and nothing else — option dataclasses,
  not factory kwargs, are where method knobs live.

Runs against :data:`repro.core.registry.REGISTRY` by default; the test
suite also points it at synthetic registries to prove each check fires.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path
from typing import Iterable, Iterator

from tools.repro_lint.core import Violation

RULE = "registry"

_REGISTRY_PATH = "src/repro/core/registry.py"


def check_registry_object(registry: object, path: str = _REGISTRY_PATH) -> Iterator[Violation]:
    """Check one registry instance (separated out for fixture tests)."""
    from repro.core.registry import SolveOptions

    def violation(message: str) -> Violation:
        return Violation(rule=RULE, path=path, line=1, message=message)

    for method in registry:  # type: ignore[attr-defined]
        tag = method.tag
        if tag != tag.lower():
            yield violation(f"method tag {tag!r} must be lowercase")
        if not (method.summary or "").strip():
            yield violation(f"method {tag!r} has an empty summary")
        if not (
            isinstance(method.options_cls, type)
            and issubclass(method.options_cls, SolveOptions)
        ):
            yield violation(
                f"method {tag!r}: options class "
                f"{method.options_cls!r} must subclass SolveOptions"
            )
            continue
        try:
            method.options_cls()
        except TypeError:
            yield violation(
                f"method {tag!r}: options class "
                f"{method.options_cls.__name__} must default every field "
                "(parse_options({}) has to succeed)"
            )
        if method.engine is not None:
            yield from _check_engine_signature(method, violation)


def _check_engine_signature(method: object, violation) -> Iterator[Violation]:
    try:
        signature = inspect.signature(method.engine)  # type: ignore[attr-defined]
    except (TypeError, ValueError):
        yield violation(
            f"method {method.tag!r}: engine factory is not introspectable"  # type: ignore[attr-defined]
        )
        return
    tag = method.tag  # type: ignore[attr-defined]
    params = list(signature.parameters.values())
    positional = [
        p
        for p in params
        if p.kind
        in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        and p.name != "warm_start"
    ]
    if len(positional) != 3:
        yield violation(
            f"method {tag!r}: engine factory must take exactly "
            f"(prep, k, opts) positionally, got "
            f"{[p.name for p in positional]}"
        )
    if "warm_start" not in signature.parameters:
        yield violation(
            f"method {tag!r}: engine factory must accept a 'warm_start' "
            "keyword (pass-through of Session.task's seed)"
        )
    else:
        warm = signature.parameters["warm_start"]
        if warm.default is inspect.Parameter.empty:
            yield violation(
                f"method {tag!r}: engine factory's 'warm_start' must "
                "default to None"
            )
    extras = [
        p.name
        for p in params
        if p.name not in ("warm_start",)
        and p not in positional
        and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]
    if extras:
        yield violation(
            f"method {tag!r}: engine factory declares extra kwargs "
            f"{extras} — method knobs belong on the options dataclass, "
            "which the registry validates up front"
        )


def check_registry(root: Path) -> Iterable[Violation]:
    """Project-scope entry point: check the live package registry."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.core.registry import REGISTRY

    return list(check_registry_object(REGISTRY))
