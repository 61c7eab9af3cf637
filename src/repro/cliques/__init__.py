"""k-clique listing, counting and the clique graph."""

from repro.cliques.listing import (
    count_cliques,
    iter_cliques,
    iter_cliques_in_nodes,
)
from repro.cliques.counting import clique_profile, node_scores
from repro.cliques.clique_graph import CliqueGraph, build_clique_graph

__all__ = [
    "iter_cliques",
    "count_cliques",
    "iter_cliques_in_nodes",
    "node_scores",
    "clique_profile",
    "CliqueGraph",
    "build_clique_graph",
]
