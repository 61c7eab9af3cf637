"""The paper's algorithms: HG, GC, L/LP, OPT, plus result types and scores."""

from repro.core.api import METHODS, find_disjoint_cliques
from repro.core.basic import basic_framework
from repro.core.registry import (
    REGISTRY,
    ExactOptions,
    GCOptions,
    HGOptions,
    Method,
    SolveOptions,
    SolverRegistry,
)
from repro.core.session import Preprocessing, Session, SolveRequest
from repro.core.task import SolveTask, TaskSnapshot
from repro.core.exact import exact_optimum
from repro.core.exact_bb import exact_optimum_bb
from repro.core.lightweight import lightweight
from repro.core.result import (
    CliqueSetResult,
    canonicalize,
    is_maximal,
    is_valid,
    verify_solution,
)
from repro.core.residual import ResidualPacking, iterative_residual_packing
from repro.core.scores import clique_key, clique_score, degree_bounds
from repro.core.store_all import store_all_cliques

__all__ = [
    "find_disjoint_cliques",
    "METHODS",
    "Session",
    "SolveRequest",
    "SolveTask",
    "TaskSnapshot",
    "Preprocessing",
    "Method",
    "SolveOptions",
    "SolverRegistry",
    "REGISTRY",
    "HGOptions",
    "GCOptions",
    "ExactOptions",
    "basic_framework",
    "store_all_cliques",
    "lightweight",
    "exact_optimum",
    "exact_optimum_bb",
    "CliqueSetResult",
    "verify_solution",
    "is_valid",
    "is_maximal",
    "canonicalize",
    "clique_score",
    "clique_key",
    "degree_bounds",
    "iterative_residual_packing",
    "ResidualPacking",
]
