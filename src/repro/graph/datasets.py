"""Dataset registry: scaled synthetic substitutes for the paper's graphs.

The paper evaluates on 10 KONECT / Network Repository graphs (Table I,
Football through Orkut, up to 117M edges) plus 6 small animal/sport
networks (Table IV). Those dumps are not redistributable here and the
build machine has no network access, so this module ships *seeded
synthetic substitutes* that preserve the evaluation's load-bearing
properties — the size ladder from tiny to large and the density/
clustering regime that controls per-k clique counts (see "Datasets" in
docs/benchmarks.md).

Every entry is generated deterministically from a fixed seed, so Table I
statistics are stable across runs and machines. ``networkx`` classics
(karate, davis, florentine, les misérables) are exposed as true real-world
graphs for the small-graph exact comparison when networkx is installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import InvalidParameterError
from repro.graph import generators as gen
from repro.graph.graph import Graph


@dataclass(frozen=True)
class DatasetSpec:
    """A named, seeded graph recipe.

    Attributes
    ----------
    name:
        Short key used throughout the bench harness (e.g. ``"FTB"``).
    description:
        Human-readable provenance, including what paper dataset this
        substitutes for and why the recipe matches its regime.
    builder:
        Zero-argument callable producing the graph.
    paper_counterpart:
        The dataset name in the paper's Table I / Table IV, if any.
    tier:
        ``"tiny" | "small" | "medium" | "large"`` — drives OOT/OOM budget
        selection in the bench harness.
    """

    name: str
    description: str
    builder: Callable[[], Graph] = field(repr=False)
    paper_counterpart: str = ""
    tier: str = "small"

    def build(self) -> Graph:
        """Materialise the graph (cached by the registry helpers)."""
        return self.builder()


_REGISTRY: dict[str, DatasetSpec] = {}
_CACHE: dict[str, Graph] = {}


def _register(spec: DatasetSpec) -> None:
    _REGISTRY[spec.name] = spec


def register_dataset(spec: DatasetSpec) -> None:
    """Add a user-defined dataset to the registry (overwrites same name)."""
    _REGISTRY[spec.name] = spec
    _CACHE.pop(spec.name, None)


def names() -> list[str]:
    """Registered dataset names in registry order."""
    return list(_REGISTRY)


def spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown dataset {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def load(name: str) -> Graph:
    """Build (and memoise) a registered dataset."""
    if name not in _CACHE:
        _CACHE[name] = spec(name).build()
    return _CACHE[name]


def specs(tier: str | None = None) -> list[DatasetSpec]:
    """All specs, optionally filtered by tier."""
    # Registration order is the documented catalog order; registrations
    # all happen at deterministic module-import time.
    out = list(_REGISTRY.values())  # repro-lint: ignore=iterorder
    if tier is not None:
        out = [s for s in out if s.tier == tier]
    return out


# ----------------------------------------------------------------------
# Paper Table I substitutes (scaled: ~1/10 to ~1/1000 of the originals).
# Density regimes: FTB community-heavy; FB-like dense clique-rich core;
# DS/SK sparse power-law; OR-like heavy-clustered power-law.
# ----------------------------------------------------------------------
_register(
    DatasetSpec(
        name="FTB",
        description=(
            "Planted-partition substitute for the Football network "
            "(n=115, m=613 in the paper): 115 nodes, 12 communities, "
            "dense inside, sparse across."
        ),
        builder=lambda: gen.planted_partition(115, 12, 0.68, 0.03, seed=101),
        paper_counterpart="Football (FTB)",
        tier="tiny",
    )
)
_register(
    DatasetSpec(
        name="HST",
        description=(
            "Power-law-cluster substitute for Hamsterster "
            "(n=1.86K, m=12.5K): 1 858 nodes, attachment 7, strong "
            "triangle closure."
        ),
        builder=lambda: gen.powerlaw_cluster(1858, 7, 0.55, seed=102),
        paper_counterpart="Hamsterster (HST)",
        tier="small",
    )
)
_register(
    DatasetSpec(
        name="FB",
        description=(
            "Dense clique-rich substitute for the Facebook ego network "
            "(n=4K, m=88K, triangles ~400x n in the paper): 1 200 nodes, "
            "24 dense planted communities; its k-clique counts reach "
            "~350x n, reproducing the regime where storing cliques "
            "explodes memory."
        ),
        builder=lambda: gen.planted_partition(1200, 24, 0.62, 0.003, seed=103),
        paper_counterpart="Facebook (FB)",
        tier="small",
    )
)
_register(
    DatasetSpec(
        name="FBP",
        description=(
            "Power-law-cluster substitute for FBPages (n=28K, m=206K): "
            "4 000 nodes, attachment 8, moderate closure."
        ),
        builder=lambda: gen.powerlaw_cluster(4000, 8, 0.4, seed=104),
        paper_counterpart="FBPages (FBP)",
        tier="medium",
    )
)
_register(
    DatasetSpec(
        name="FBW",
        description=(
            "Power-law-cluster substitute for FBWosn (n=63.7K, m=817K): "
            "6 000 nodes, attachment 12, strong closure."
        ),
        builder=lambda: gen.powerlaw_cluster(6000, 12, 0.5, seed=105),
        paper_counterpart="FBWosn (FBW)",
        tier="medium",
    )
)
_register(
    DatasetSpec(
        name="DS",
        description=(
            "Sparse power-law substitute for Dogster (n=260K, m=2.15M): "
            "8 000 nodes, attachment 6, weak closure."
        ),
        builder=lambda: gen.powerlaw_cluster(8000, 6, 0.25, seed=106),
        paper_counterpart="Dogster (DS)",
        tier="medium",
    )
)
_register(
    DatasetSpec(
        name="SK",
        description=(
            "Sparse substitute for Skitter (n=1.7M, m=11M): 12 000 nodes, "
            "Barabási–Albert attachment 5 (low clustering, long tail)."
        ),
        builder=lambda: gen.barabasi_albert(12000, 5, seed=107),
        paper_counterpart="Skitter (SK)",
        tier="large",
    )
)
_register(
    DatasetSpec(
        name="FL",
        description=(
            "Clique-heavy substitute for Flickr (n=1.7M, m=15.6M, 548M "
            "triangles): 5 000 nodes, power-law cluster attachment 18, "
            "very strong closure."
        ),
        builder=lambda: gen.powerlaw_cluster(5000, 18, 0.8, seed=108),
        paper_counterpart="Flickr (FL)",
        tier="large",
    )
)
_register(
    DatasetSpec(
        name="LJ",
        description=(
            "Substitute for LiveJournal (n=5.2M, m=48.7M): 15 000 nodes, "
            "power-law cluster attachment 8, moderate closure."
        ),
        builder=lambda: gen.powerlaw_cluster(15000, 8, 0.35, seed=109),
        paper_counterpart="LiveJournal (LJ)",
        tier="large",
    )
)
_register(
    DatasetSpec(
        name="OR",
        description=(
            "Substitute for Orkut (n=3M, m=117M): 10 000 nodes, "
            "power-law cluster attachment 18, moderate closure."
        ),
        builder=lambda: gen.powerlaw_cluster(10000, 18, 0.5, seed=110),
        paper_counterpart="Orkut (OR)",
        tier="large",
    )
)

# ----------------------------------------------------------------------
# Paper Table IV small graphs (animal social networks + Football).
# ----------------------------------------------------------------------
_register(
    DatasetSpec(
        name="Swallow",
        description=(
            "Substitute for the barn-swallow contact network "
            "(n=17, m=53): dense G(n, m) at the same size."
        ),
        builder=lambda: gen.erdos_renyi_gnm(17, 53, seed=201),
        paper_counterpart="Swallow",
        tier="tiny",
    )
)
_register(
    DatasetSpec(
        name="Tortoise",
        description=(
            "Substitute for the desert-tortoise network (n=35, m=104): "
            "planted partition, 6 burrow communities."
        ),
        builder=lambda: gen.planted_partition(35, 6, 0.55, 0.08, seed=202),
        paper_counterpart="Tortoise",
        tier="tiny",
    )
)
_register(
    DatasetSpec(
        name="Lizard",
        description=(
            "Substitute for the sleepy-lizard network (n=60, m=318): "
            "dense planted partition, 5 communities."
        ),
        builder=lambda: gen.planted_partition(60, 5, 0.48, 0.09, seed=203),
        paper_counterpart="Lizard",
        tier="tiny",
    )
)
_register(
    DatasetSpec(
        name="Voles",
        description=(
            "Substitute for the field-vole trapping network "
            "(n=181, m=515): planted partition, 24 communities."
        ),
        builder=lambda: gen.planted_partition(181, 24, 0.55, 0.012, seed=204),
        paper_counterpart="Voles",
        tier="tiny",
    )
)

SMALL_EXACT_NAMES = ["Swallow", "Tortoise", "Lizard", "FTB", "Voles", "HST"]
TABLE1_NAMES = ["FTB", "HST", "FB", "FBP", "FBW", "DS", "SK", "FL", "LJ", "OR"]


# ----------------------------------------------------------------------
# Real classics via networkx (optional dependency, used in tests and examples)
# ----------------------------------------------------------------------
def networkx_classic(name: str) -> Graph:
    """Load a classic real-world graph shipped with networkx.

    Supported names: ``karate``, ``davis``, ``florentine``,
    ``les_miserables``. Raises :class:`InvalidParameterError` for unknown
    names and ``ImportError`` when networkx is unavailable.
    """
    import networkx as nx

    loaders = {
        "karate": nx.karate_club_graph,
        "davis": lambda: nx.bipartite.projected_graph(
            nx.davis_southern_women_graph(),
            [n for n, d in nx.davis_southern_women_graph().nodes(data=True)
             if d.get("bipartite") == 0],
        ),
        "florentine": nx.florentine_families_graph,
        "les_miserables": nx.les_miserables_graph,
    }
    if name not in loaders:
        raise InvalidParameterError(
            f"unknown classic {name!r}; available: {sorted(loaders)}"
        )
    nxg = loaders[name]()
    mapping = {label: i for i, label in enumerate(sorted(nxg.nodes(), key=str))}
    edges = [(mapping[a], mapping[b]) for a, b in nxg.edges() if a != b]
    return Graph(len(mapping), edges)
