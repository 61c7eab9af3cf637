"""Seeded inputs: fixed graph shapes whose node labels the seed permutes.

Every workload builds its graphs and update streams from :data:`SHAPE_SEED`
and then renames the nodes with a permutation drawn from ``--seed``. Two
seeds therefore give the same inputs up to a renaming of the nodes: the
runs do the same amount of work and differ only where the program
depends on node order (ties in orderings and heaps). When the seed
picked the shapes too, one seed's update stream cost 8 % more per batch
than another's on every repeat, and the benchmark's spread counted that
as noise.
"""

from __future__ import annotations

import numpy as np

from repro import Graph

#: Seed of every generated graph shape and update stream.
SHAPE_SEED = 2024


def permutation(n: int, rng: np.random.Generator) -> list[int]:
    """A random renaming of ``n`` nodes."""
    return [int(v) for v in rng.permutation(n)]


def relabel(graph: Graph, perm: list[int]) -> Graph:
    """``graph`` with node ``v`` renamed ``perm[v]``."""
    return Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])


def relabel_updates(updates: list, perm: list[int]) -> list:
    """An update stream ``(op, u, v)`` with every node renamed."""
    return [(op, perm[u], perm[v]) for op, u, v in updates]
