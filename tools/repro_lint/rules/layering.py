"""Layering contract: the ``repro`` import DAG must stay acyclic.

The package layering, bottom to top (a module may import same-package
modules freely, and other packages only at strictly lower rank)::

    errors(0) -> graph(10) -> cliques/hypergraph/mis(20) -> core(30)
      -> matching/dynamic(40) -> analysis(50) -> repro(55, root re-exports)
      -> serve(60) -> bench(70) -> cli(80) -> __main__(90)

``jsonsafe`` sits at rank 0 (pure stdlib/numpy helpers importable from
anywhere). Module-level imports are enforced strictly: an upward (or
sideways cross-package) module-level import is a violation naming the
edge. Deferred imports — inside a function body — are the sanctioned
escape hatch for the few intentional upward edges (e.g.
``Session.dynamic`` constructing a maintainer) **but** each must be
allow-listed in :data:`DEFERRED_OK`; a new upward deferred import fails
until the edge is consciously admitted here.

Imports under ``if TYPE_CHECKING:`` are exempt: they exist only for
annotations and create no runtime edge, so an upward *type* reference
(e.g. ``graph`` annotating a ``DynamicGraph`` parameter) is fine —
it is exactly how a low layer should name a high-layer type.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lint.core import ModuleInfo, Violation

RULE = "layering"

#: Package rank: imports must point strictly downward across packages.
LAYERS: dict[str, int] = {
    "errors": 0,
    "jsonsafe": 0,
    "concurrency": 0,  # lock factories; importable from anywhere
    "graph": 10,
    "cliques": 20,
    "hypergraph": 20,
    "mis": 20,
    "core": 30,
    "matching": 40,
    "dynamic": 40,
    "analysis": 50,
    "repro": 55,  # the root package's own re-export surface
    "serve": 60,
    "bench": 70,
    "cli": 80,
    "__main__": 90,
}

#: Deferred (function-body) upward imports that are intentionally part
#: of the design: (importing module prefix, imported module prefix).
DEFERRED_OK: frozenset[tuple[str, str]] = frozenset(
    {
        # Session.dynamic / Session.task construct upward-layer objects on
        # demand; the type dependency stays inverted (maintainer depends
        # on core, not vice versa).
        ("repro.core.session", "repro.dynamic.maintainer"),
        # Preprocessing.bounds memoizes the certified optimum bounds,
        # which read only graph and clique substrates.
        ("repro.core.session", "repro.analysis.bounds"),
        # exact_optimum falls back to blossom matching for k=2.
        ("repro.core.exact", "repro.matching"),
        # result maximality checks enumerate residual cliques lazily.
        ("repro.core.result", "repro.cliques.listing"),
    }
)


def _package_of(module: str) -> str:
    """Layer key for a dotted ``repro`` module name."""
    parts = module.split(".")
    if parts[0] != "repro":
        return parts[0]
    if len(parts) == 1:
        return "repro"
    return parts[1]


def _rank(module: str) -> int | None:
    """Layer rank, or ``None`` for modules outside the contract.

    A ``repro.*`` target whose second component is not a known package
    is a symbol imported from the root ``__init__`` (``from repro
    import Session``) or a package new to the contract; both rank as
    the root re-export surface, so low layers cannot quietly depend on
    them until :data:`LAYERS` is consciously extended.
    """
    pkg = _package_of(module)
    if pkg == "repro":
        return LAYERS["repro"]
    rank = LAYERS.get(pkg)
    if rank is None and module.startswith("repro."):
        return LAYERS["repro"]
    return rank


def _resolve_targets(node: ast.stmt, importer: str) -> Iterator[str]:
    """Dotted repro-module targets of one import statement.

    ``from repro import errors`` resolves to ``repro.errors`` (the
    bound name is a submodule, and that is the edge that matters);
    ``from repro.core import session`` likewise. Relative imports are
    resolved against the importing module.
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "repro" or alias.name.startswith("repro."):
                yield alias.name
        return
    if not isinstance(node, ast.ImportFrom):
        return
    base = node.module or ""
    if node.level:
        parts = importer.split(".")
        # level=1 from a module means its package; each extra level pops one.
        parts = parts[: len(parts) - node.level]
        base = ".".join(parts + ([base] if base else []))
    if not (base == "repro" or base.startswith("repro.")):
        return
    for alias in node.names:
        # `from repro import errors` imports the submodule repro.errors;
        # `from repro.errors import GraphError` imports a symbol. Either
        # way `base + "." + name` names the tightest plausible target —
        # rank lookup only uses the package part, so a symbol name after
        # the module is harmless.
        yield f"{base}.{alias.name}"


def _is_type_checking(test: ast.expr) -> bool:
    """Whether an ``if`` test is the ``TYPE_CHECKING`` guard."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _iter_imports(
    tree: ast.Module,
) -> Iterator[tuple[ast.stmt, bool]]:
    """Yield every import statement with a ``deferred`` flag."""

    class Walker(ast.NodeVisitor):
        def __init__(self) -> None:
            self.found: list[tuple[ast.stmt, bool]] = []
            self._depth = 0

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            self._depth += 1
            self.generic_visit(node)
            self._depth -= 1

        visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

        def visit_If(self, node: ast.If) -> None:
            # `if TYPE_CHECKING:` bodies never execute at runtime, so
            # their imports are annotation-only and outside the contract.
            if _is_type_checking(node.test):
                for orelse in node.orelse:
                    self.visit(orelse)
                return
            self.generic_visit(node)

        def visit_Import(self, node: ast.Import) -> None:
            self.found.append((node, self._depth > 0))

        def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
            self.found.append((node, self._depth > 0))

    walker = Walker()
    walker.visit(tree)
    yield from walker.found


def _allowed_deferred(importer: str, target: str) -> bool:
    return any(
        importer.startswith(src) and target.startswith(dst)
        for src, dst in DEFERRED_OK
    )


def check_layering(module: ModuleInfo) -> Iterator[Violation]:
    """Flag imports that point up (or sideways across) the layer DAG."""
    importer = module.name
    importer_rank = _rank(importer) if importer.startswith("repro") else None
    if importer_rank is None:
        return
    importer_pkg = _package_of(importer)
    for node, deferred in _iter_imports(module.tree):
        for target in _resolve_targets(node, importer):
            target_pkg = _package_of(target)
            if target_pkg == importer_pkg:
                continue
            target_rank = _rank(target)
            if target_rank is None:
                continue
            if target_rank < importer_rank:
                continue
            if deferred and _allowed_deferred(importer, target):
                continue
            direction = "deferred " if deferred else ""
            yield Violation(
                rule=RULE,
                path=module.relpath,
                line=node.lineno,
                message=(
                    f"{direction}import edge {importer} -> {target} violates "
                    f"the layering contract ({importer_pkg}[{importer_rank}] "
                    f"may only import layers below it; {target_pkg} is "
                    f"[{target_rank}])"
                ),
            )
