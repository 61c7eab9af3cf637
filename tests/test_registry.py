"""Tests for the solver registry: Method metadata and typed options."""

import inspect
from dataclasses import fields as dataclass_fields

import pytest

from repro import METHODS, REGISTRY, Graph, Session, find_disjoint_cliques
from repro.cli import main as cli_main
from repro.core.registry import (
    ExactOptions,
    GCOptions,
    HGOptions,
    Method,
    SolveOptions,
    SolverRegistry,
)
from repro.errors import InvalidParameterError

#: The derived capabilities per method: (resumable, warm start,
#: time budget, can meet deadline).
CAPABILITIES = {
    "hg": (True, True, False, True),
    "gc": (False, False, False, False),
    "l": (True, True, False, True),
    "lp": (True, True, False, True),
    "opt": (False, False, True, True),
    "opt-bb": (True, True, True, True),
}


class TestRegistryContents:
    def test_all_paper_tags_registered(self):
        assert REGISTRY.tags() == ("hg", "gc", "l", "lp", "opt", "opt-bb")
        assert METHODS == REGISTRY.tags()

    def test_get_returns_method_objects(self):
        for tag in METHODS:
            method = REGISTRY.get(tag)
            assert isinstance(method, Method)
            assert method.tag == tag
            assert method.summary
            assert issubclass(method.options_cls, SolveOptions)

    def test_get_case_insensitive(self):
        assert REGISTRY.get("LP").tag == "lp"
        assert REGISTRY.get("Opt-BB").tag == "opt-bb"

    def test_unknown_tag(self):
        with pytest.raises(InvalidParameterError, match="unknown method"):
            REGISTRY.get("magic")

    def test_non_string_tag(self):
        with pytest.raises(InvalidParameterError, match="string tag"):
            REGISTRY.get(3)

    def test_contains_and_len(self):
        assert "lp" in REGISTRY and "LP" in REGISTRY
        assert "magic" not in REGISTRY and 3 not in REGISTRY
        assert len(REGISTRY) == 6

    def test_exactness_metadata(self):
        exact = {m.tag for m in REGISTRY if m.exact}
        assert exact == {"opt", "opt-bb"}

    def test_derived_capabilities(self, triangle_pair):
        session = Session(triangle_pair)
        for tag, (resumable, warm, budget, deadline) in CAPABILITIES.items():
            method = REGISTRY.get(tag)
            assert method.resumable is resumable, tag
            assert method.supports_time_budget is budget, tag
            assert method.can_meet_deadline is deadline, tag
            try:
                session.task(3, tag, warm_start=session.solve(3, "lp"))
            except InvalidParameterError as exc:
                assert not warm and "not resumable" in str(exc), tag
            else:
                assert warm, tag

    def test_capabilities_are_not_declared(self):
        names = [f.name for f in dataclass_fields(Method)]
        assert names == ["tag", "summary", "exact", "options_cls", "engine", "run"]
        assert list(inspect.signature(SolverRegistry.register).parameters) == [
            "self", "tag", "summary", "exact", "options", "engine",
        ]
        # One callable per method: an engine, or else a run function.
        for method in REGISTRY:
            assert (method.engine is None) != (method.run is None), method.tag

    def test_options_classes(self):
        assert REGISTRY.get("hg").options_cls is HGOptions
        assert REGISTRY.get("gc").options_cls is GCOptions
        assert REGISTRY.get("l").options_cls is SolveOptions
        assert REGISTRY.get("lp").options_cls is SolveOptions
        assert REGISTRY.get("opt").options_cls is ExactOptions
        assert REGISTRY.get("opt-bb").options_cls is ExactOptions

    def test_duplicate_registration_rejected(self):
        registry = SolverRegistry()

        @registry.register("x", summary="one", exact=False)
        def _first(prep, k, opts):  # pragma: no cover - never run
            raise NotImplementedError

        with pytest.raises(InvalidParameterError, match="already registered"):

            @registry.register("X", summary="two", exact=False)
            def _second(prep, k, opts):  # pragma: no cover - never run
                raise NotImplementedError


class TestOptionParsing:
    def test_typo_rejected_with_suggestion(self):
        with pytest.raises(InvalidParameterError) as err:
            REGISTRY.get("opt").parse_options({"time_budgt": 5.0})
        message = str(err.value)
        assert "time_budgt" in message
        assert "time_budget" in message  # valid options listed + suggestion
        assert "max_cliques" in message

    def test_unknown_option_names_method(self):
        with pytest.raises(InvalidParameterError, match="'gc'"):
            REGISTRY.get("gc").parse_options({"workers": 2})

    def test_option_valid_for_other_method_rejected(self):
        # time_budget belongs to opt/opt-bb, not lp (which takes none).
        with pytest.raises(InvalidParameterError, match=r"valid options: \(none\)"):
            REGISTRY.get("lp").parse_options({"time_budget": 5.0})

    def test_prune_hint(self):
        with pytest.raises(InvalidParameterError, match="prune"):
            REGISTRY.get("lp").parse_options({"prune": False})

    def test_defaults(self):
        assert REGISTRY.get("lp").parse_options({}) == SolveOptions()
        assert REGISTRY.get("gc").parse_options({}).max_cliques is None

    def test_domain_validation(self):
        with pytest.raises(InvalidParameterError, match="time_budget"):
            REGISTRY.get("opt").parse_options({"time_budget": -3})
        with pytest.raises(InvalidParameterError, match="max_cliques"):
            REGISTRY.get("gc").parse_options({"max_cliques": 0})
        with pytest.raises(InvalidParameterError, match="max_cliques"):
            REGISTRY.get("gc").parse_options({"max_cliques": 2.5})
        # NaN once passed ``value <= 0`` and solved with no budget.
        for budget in (float("nan"), float("inf"), 10**400):
            with pytest.raises(InvalidParameterError, match="time_budget must be positive and finite"):
                REGISTRY.get("opt").parse_options({"time_budget": budget})

    def test_describe_lists_defaults(self):
        assert "order='degree'" in HGOptions.describe()
        assert SolveOptions.describe() == "-"


class TestOneShotWrapperErrors:
    """The legacy entry point surfaces the same typed validation."""

    def test_typo_through_find_disjoint_cliques(self, triangle_pair):
        with pytest.raises(InvalidParameterError, match="time_budgt"):
            find_disjoint_cliques(triangle_pair, 3, method="opt", time_budgt=1)

    def test_wrong_method_option(self, triangle_pair):
        # order= is an hg/gc option; lp must reject it up front.
        with pytest.raises(InvalidParameterError, match="valid options"):
            find_disjoint_cliques(triangle_pair, 3, method="lp", order="degree")

    def test_valid_options_still_forwarded(self, triangle_pair):
        result = find_disjoint_cliques(
            triangle_pair, 3, method="gc", max_cliques=100
        )
        assert result.size == 2


class TestMethodsCommand:
    def test_cli_methods_lists_registry(self, capsys):
        assert cli_main(["methods"]) == 0
        out = capsys.readouterr().out
        for tag in METHODS:
            assert tag in out
        assert "time_budget" in out and "exact" in out and "heuristic" in out
        assert "max_cliques" in out

    def test_cli_methods_table_columns(self, capsys):
        assert cli_main(["methods"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split() == [
            "tag", "kind", "resumable", "time_budget", "deadline",
            "warm_start", "options",
        ]
        rows = [line.split()[:6] for line in lines[::2]]
        yes = {True: "yes", False: "no"}
        assert rows == [
            [tag, "exact" if REGISTRY.get(tag).exact else "heuristic",
             yes[resumable], yes[budget], yes[deadline], yes[warm]]
            for tag, (resumable, warm, budget, deadline) in CAPABILITIES.items()
        ]

    def test_cli_solve_accepts_opt_bb(self, capsys):
        g_edges = "0 1\n0 2\n1 2\n"
        import tempfile, os

        with tempfile.NamedTemporaryFile("w", suffix=".edges", delete=False) as fh:
            fh.write(g_edges)
            path = fh.name
        try:
            assert cli_main(["solve", "--input", path, "--k", "3",
                             "--method", "opt-bb"]) == 0
            assert "|S|=1" in capsys.readouterr().out
        finally:
            os.unlink(path)
