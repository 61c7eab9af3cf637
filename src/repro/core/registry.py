"""Solver registry: first-class methods with typed, validated options.

Each solver method (the paper's competitor tags ``hg``/``gc``/``l``/
``lp``/``opt``/``opt-bb``) is registered as a :class:`Method` object:
its tag, a summary, whether it is exact, a frozen options dataclass
that validates keyword arguments *up front* instead of silently
forwarding them into a solver, and one callable. A typo like
``time_budgt=`` therefore fails immediately with the valid option names
for that method (and a did-you-mean suggestion) rather than raising a
confusing ``TypeError`` deep inside a solver, or worse, being swallowed.

The callable is a resumable *engine factory* ``(prep, k, options,
warm_start=None)`` for the step-engine methods (``hg``/``l``/``lp``/
``opt-bb``), which every solve drives as a
:class:`repro.core.task.SolveTask`, or a blocking *run function*
``(prep, k, options)`` for the monolithic ``gc`` and ``opt``. ``prep``
is a :class:`repro.core.session.Preprocessing` cache, so every method
pulls its shared substrates (node scores, clique listings, oriented
DAGs) from the owning :class:`~repro.core.session.Session` instead of
recomputing them per call. Capabilities are derived, never declared:
see :attr:`Method.resumable`, :attr:`Method.supports_time_budget` and
:attr:`Method.can_meet_deadline`.

The module-level :data:`REGISTRY` holds the six paper methods; custom
methods can be added to a private :class:`SolverRegistry` instance for
experimentation without touching the default set.
"""

from __future__ import annotations

import difflib
import sys
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.errors import InvalidParameterError
from repro.core.basic import BasicEngine
from repro.core.exact import exact_optimum
from repro.core.exact_bb import ExactBBEngine
from repro.core.lightweight import LightweightEngine
from repro.core.result import CliqueSetResult
from repro.core.store_all import store_all_cliques

if TYPE_CHECKING:  # deferred at runtime: session imports the registry
    from repro.core.session import Preprocessing


# ----------------------------------------------------------------------
# Typed per-method options
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolveOptions:
    """Base class for per-method solver options.

    Subclasses declare one field per accepted keyword; :meth:`validate`
    checks value domains after construction. Field names double as the
    public option names reported in error messages and by the
    ``python -m repro methods`` command.
    """

    @classmethod
    def option_names(cls) -> tuple[str, ...]:
        """The keyword names this options class accepts."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def describe(cls) -> str:
        """Human-readable ``name=default`` listing (``-`` when empty)."""
        parts = [f"{f.name}={f.default!r}" for f in fields(cls)]
        return ", ".join(parts) if parts else "-"

    def validate(self) -> None:
        """Raise :class:`InvalidParameterError` on out-of-domain values."""


def _check_budget(name: str, value: object, *, integral: bool) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(
            f"{name} must be a positive number or None, got {value!r}"
        )
    if integral and not isinstance(value, int):
        raise InvalidParameterError(
            f"{name} must be an int or None, got {value!r}"
        )
    # NaN fails every comparison; seconds must also fit a float.
    if not (value > 0 and (integral or value <= sys.float_info.max)):
        raise InvalidParameterError(
            f"{name} must be positive and finite, got {value!r}"
        )


@dataclass(frozen=True)
class HGOptions(SolveOptions):
    """Options for Algorithm 1 (``hg``).

    ``order`` is the total node ordering used to orient the graph: a
    name (``"id" | "degree" | "degeneracy"``), a rank array, or a
    callable ``graph -> rank array``.
    """

    order: object = "degree"


@dataclass(frozen=True)
class GCOptions(SolveOptions):
    """Options for Algorithm 2 (``gc``): the stored-clique memory cap.

    The session always enumerates under its cached degeneracy
    orientation (the result is orientation-independent), so no
    ``order`` knob is exposed here; pass ``order=`` to
    :func:`repro.core.store_all.store_all_cliques` directly to
    experiment with listing orientations.
    """

    max_cliques: int | None = None

    def validate(self) -> None:
        _check_budget("max_cliques", self.max_cliques, integral=True)


@dataclass(frozen=True)
class ExactOptions(SolveOptions):
    """Options for the exact baselines (``opt``/``opt-bb``): OOT/OOM budgets."""

    time_budget: float | None = None
    max_cliques: int | None = None

    def validate(self) -> None:
        _check_budget("time_budget", self.time_budget, integral=False)
        _check_budget("max_cliques", self.max_cliques, integral=True)


# ----------------------------------------------------------------------
# Method objects and the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Method:
    """A registered solver method; its capabilities derive from the rest.

    Attributes
    ----------
    tag:
        The dispatch tag (``"lp"``, ``"opt-bb"``, ...), always lowercase.
    summary:
        One-line description shown by ``python -m repro methods``.
    exact:
        ``True`` for provably optimal solvers, ``False`` for heuristics.
    options_cls:
        The :class:`SolveOptions` subclass validating this method's
        keyword arguments.
    engine:
        Factory ``(prep, k, options, warm_start=None) -> engine`` for
        the method's resumable step machine, or ``None`` for the
        monolithic methods. When present the method is
        :attr:`resumable`: every solve, blocking or anytime, runs as a
        :class:`repro.core.task.SolveTask` over this engine, the serving
        scheduler can preempt/timeslice it, and deadline expiry yields
        its partial solution instead of discarding the work.
    run:
        ``(prep, k, options) -> CliqueSetResult`` for a monolithic
        method (``None`` when :attr:`engine` is set), using the
        session's :class:`~repro.core.session.Preprocessing` cache.
    """

    tag: str
    summary: str
    exact: bool
    options_cls: type[SolveOptions]
    engine: Callable | None = field(default=None, repr=False, compare=False)
    run: Callable[..., CliqueSetResult] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def resumable(self) -> bool:
        """Whether the method exposes a resumable engine (anytime-capable).

        Resumable methods are also the warm-startable ones: the engine
        factory takes the seed (and filters it to cliques still valid in
        the graph), :meth:`repro.core.session.Session.task` exposes it as
        ``warm_start=`` and :meth:`~repro.core.session.Session.dynamic`
        uses it to warm-restart after updates.
        """
        return self.engine is not None

    @property
    def supports_time_budget(self) -> bool:
        """Whether the options class has a ``time_budget`` option.

        A resumable method's task bounds the seconds it spends stepping
        by it; a monolithic one honours it cooperatively.
        """
        return "time_budget" in self.options_cls.option_names()

    @property
    def can_meet_deadline(self) -> bool:
        """Whether a per-request deadline is enforceable for this method.

        True when the method is :attr:`resumable` (the scheduler
        timeslices it and harvests ``best()`` at expiry) or honours a
        ``time_budget`` (the scheduler forwards the remaining deadline).
        The serving scheduler only accepts per-request deadlines for
        such methods; others would occupy a worker long past their
        deadline with no way to stop.
        """
        return self.resumable or self.supports_time_budget

    def parse_options(self, kwargs: dict) -> SolveOptions:
        """Validate raw keyword arguments into a typed options object.

        Unknown names raise :class:`InvalidParameterError` listing the
        valid options for this method, with a close-match suggestion.
        """
        valid = self.options_cls.option_names()
        unknown = [name for name in kwargs if name not in valid]
        if unknown:
            bad = unknown[0]
            if bad == "prune":
                raise InvalidParameterError(
                    "pass method='l' or method='lp' instead of a prune= keyword"
                )
            valid_text = ", ".join(valid) if valid else "(none)"
            hint = ""
            # Prefer options containing the typo (order -> listing_order)
            # over pure edit-distance matches.
            containing = [name for name in valid if bad in name]
            close = containing or difflib.get_close_matches(bad, valid, n=1)
            if close:
                hint = f" (did you mean {close[0]!r}?)"
            raise InvalidParameterError(
                f"unknown option {bad!r} for method {self.tag!r}; "
                f"valid options: {valid_text}{hint}"
            )
        options = self.options_cls(**kwargs)
        options.validate()
        return options


class SolverRegistry:
    """Tag -> :class:`Method` mapping; see :meth:`register`."""

    def __init__(self) -> None:
        self._methods: dict[str, Method] = {}

    def register(
        self,
        tag: str,
        *,
        summary: str,
        exact: bool,
        options: type[SolveOptions] = SolveOptions,
        engine: Callable | None = None,
    ) -> Callable:
        """Register a method by its one callable.

        A resumable method passes its engine factory ``(prep, k,
        options, warm_start=None) -> engine`` as ``engine``; it is
        registered at once and the factory is returned (see
        :attr:`Method.engine`). Without ``engine`` this returns a
        decorator that registers the ``(prep, k, options)`` run
        function of a monolithic method and returns it unchanged.
        """

        def add(fn: Callable) -> Callable:
            key = tag.lower()
            if key in self._methods:
                raise InvalidParameterError(f"method {tag!r} is already registered")
            self._methods[key] = Method(
                tag=key,
                summary=summary,
                exact=exact,
                options_cls=options,
                engine=engine,
                run=None if engine is not None else fn,
            )
            return fn

        return add(engine) if engine is not None else add

    def get(self, tag: str) -> Method:
        """Resolve a (case-insensitive) tag; raise on unknown methods."""
        if not isinstance(tag, str):
            raise InvalidParameterError(
                f"method must be a string tag, got {type(tag).__name__}"
            )
        method = self._methods.get(tag.lower())
        if method is None:
            raise InvalidParameterError(
                f"unknown method {tag!r}; expected one of {self.tags()}"
            )
        return method

    def tags(self) -> tuple[str, ...]:
        """Registered tags in registration order."""
        return tuple(self._methods)

    def methods(self) -> tuple[Method, ...]:
        """Registered :class:`Method` objects in registration order."""
        # Registration order IS the documented contract here, and every
        # registration happens at deterministic module-import time.
        return tuple(self._methods.values())  # repro-lint: ignore=iterorder

    def __iter__(self) -> Iterator[Method]:
        return iter(self._methods.values())

    def __contains__(self, tag: object) -> bool:
        return isinstance(tag, str) and tag.lower() in self._methods

    def __len__(self) -> int:
        return len(self._methods)


#: The default registry holding the paper's six methods.
REGISTRY = SolverRegistry()


# ----------------------------------------------------------------------
# The paper's methods: engine factories for the resumable ones, run
# functions for the monolithic gc and opt.
# ----------------------------------------------------------------------
def _engine_hg(
    prep: Preprocessing,
    k: int,
    opts: HGOptions,
    warm_start: Iterable[Iterable[int]] | None = None,
) -> BasicEngine:
    return BasicEngine(
        prep.graph,
        k,
        order=opts.order,
        oriented=prep.oriented(opts.order),
        warm_start=warm_start,
    )


def _engine_lightweight(prune: bool) -> Callable[..., LightweightEngine]:
    def factory(
        prep: Preprocessing,
        k: int,
        opts: SolveOptions,
        warm_start: Iterable[Iterable[int]] | None = None,
    ) -> LightweightEngine:
        return LightweightEngine(
            prep.graph,
            k,
            prune=prune,
            scores=prep.scores(k),
            warm_start=warm_start,
            oriented=prep.score_oriented(k),
        )

    return factory


def _engine_opt_bb(
    prep: Preprocessing,
    k: int,
    opts: ExactOptions,
    warm_start: Iterable[Iterable[int]] | None = None,
) -> ExactBBEngine:
    # Listing first: the scores then accumulate from the cached listing
    # instead of costing a second enumeration.
    cliques = prep.cliques(k, max_cliques=opts.max_cliques)
    return ExactBBEngine(
        prep.graph,
        k,
        max_cliques=opts.max_cliques,
        scores=prep.scores(k),
        cliques=cliques,
        warm_start=warm_start,
    )


REGISTRY.register(
    "hg",
    summary="Algorithm 1, basic greedy framework (maximal, k-approximate)",
    exact=False,
    options=HGOptions,
    engine=_engine_hg,
)


@REGISTRY.register(
    "gc",
    summary="Algorithm 2, stored cliques in ascending clique-score order",
    exact=False,
    options=GCOptions,
)
def _run_gc(prep: Preprocessing, k: int, opts: GCOptions) -> CliqueSetResult:
    cliques = prep.cliques(k, max_cliques=opts.max_cliques)
    return store_all_cliques(
        prep.graph,
        k,
        max_cliques=opts.max_cliques,
        scores=prep.scores(k),
        cliques=cliques,
    )


REGISTRY.register(
    "l",
    summary="Algorithm 3 without score pruning (O(n+m) space)",
    exact=False,
    engine=_engine_lightweight(prune=False),
)
REGISTRY.register(
    "lp",
    summary="Algorithm 3 with score pruning (the paper's headline method)",
    exact=False,
    engine=_engine_lightweight(prune=True),
)


@REGISTRY.register(
    "opt",
    summary="exact: clique graph + exact MIS (blossom matching for k=2)",
    exact=True,
    options=ExactOptions,
)
def _run_opt(prep: Preprocessing, k: int, opts: ExactOptions) -> CliqueSetResult:
    if k == 2:
        # Blossom matching needs no clique substrate; skip the listing.
        return exact_optimum(
            prep.graph, 2, time_budget=opts.time_budget, max_cliques=opts.max_cliques
        )
    return exact_optimum(
        prep.graph,
        k,
        time_budget=opts.time_budget,
        max_cliques=opts.max_cliques,
        cliques=prep.cliques(k, max_cliques=opts.max_cliques),
    )


REGISTRY.register(
    "opt-bb",
    summary="exact: direct branch-and-bound over cliques (cross-check)",
    exact=True,
    options=ExactOptions,
    engine=_engine_opt_bb,
)
