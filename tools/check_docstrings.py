#!/usr/bin/env python
"""CI gate: public-surface docstring coverage must not regress.

Walks the declared public API surface — the modules users are pointed
at by the README and docs tree — and requires a docstring on every
public symbol: the module itself, public classes and functions defined
in it, and public methods/properties defined on those classes
(inherited and underscore-prefixed members are exempt).

The baseline is 100%: the whole surface is documented today, so *any*
missing docstring is a regression and fails the build with the exact
symbol list. Extending the surface (new public module, class or
method) therefore forces the docstring to land in the same PR.

Run:  PYTHONPATH=src python tools/check_docstrings.py [--verbose]
Exit: 0 when fully documented, 1 otherwise (missing symbols on stderr).

No dependencies beyond the package itself and the stdlib.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: The public API surface. Keep in sync with docs/architecture.md.
PUBLIC_MODULES = (
    "repro",
    "repro.errors",
    "repro.concurrency",
    "repro.core.api",
    "repro.core.session",
    "repro.core.registry",
    "repro.core.result",
    "repro.core.task",
    "repro.graph.graph",
    "repro.graph.dynamic",
    "repro.graph.fingerprint",
    "repro.dynamic.maintainer",
    "repro.dynamic.batch",
    "repro.dynamic.workload",
    "repro.analysis.bounds",
    "repro.serve",
    "repro.serve.pool",
    "repro.serve.scheduler",
    "repro.serve.feeds",
    "repro.serve.protocol",
    "repro.serve.server",
    "repro.serve.client",
    "repro.bench.runner",
    "repro.bench.workloads",
)


def is_public(name: str) -> bool:
    """Public names: no leading underscore (dunders are not API here)."""
    return not name.startswith("_")


def class_members(cls: type, qualname: str):
    """Yield (qualname, needs_doc) for public members defined on ``cls``."""
    for name, member in vars(cls).items():
        if not is_public(name):
            continue
        target = None
        if isinstance(member, property):
            target = member.fget
        elif isinstance(member, (staticmethod, classmethod)):
            target = member.__func__
        elif inspect.isfunction(member):
            target = member
        if target is not None:
            yield f"{qualname}.{name}", bool(inspect.getdoc(target))


def audit_module(module_name: str):
    """Yield (symbol, documented) pairs for one module's public surface."""
    module = importlib.import_module(module_name)
    yield module_name, bool(inspect.getdoc(module))
    for name, obj in vars(module).items():
        if not is_public(name):
            continue
        if inspect.isclass(obj) and obj.__module__ == module_name:
            qualname = f"{module_name}.{name}"
            yield qualname, bool(inspect.getdoc(obj))
            yield from class_members(obj, qualname)
        elif inspect.isfunction(obj) and obj.__module__ == module_name:
            yield f"{module_name}.{name}", bool(inspect.getdoc(obj))


def main(argv=None) -> int:
    """Audit the surface; report coverage; fail on any undocumented symbol."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--verbose", action="store_true", help="list every audited symbol"
    )
    args = parser.parse_args(argv)

    total, missing = 0, []
    for module_name in PUBLIC_MODULES:
        for symbol, documented in audit_module(module_name):
            total += 1
            if args.verbose:
                print(f"{'ok  ' if documented else 'MISS'} {symbol}")
            if not documented:
                missing.append(symbol)

    covered = total - len(missing)
    print(f"docstring coverage: {covered}/{total} public symbols "
          f"({100 * covered / total:.1f}%)")
    if missing:
        print(
            "regression: these public symbols lack docstrings:", file=sys.stderr
        )
        for symbol in missing:
            print(f"  - {symbol}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
