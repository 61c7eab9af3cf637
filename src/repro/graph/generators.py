"""Seeded random-graph generators used for datasets and experiments.

All generators return :class:`repro.graph.graph.Graph` and take an integer
``seed`` so every experiment in this repository is reproducible bit-for-
bit. The Watts–Strogatz model is the one the paper's synthetic evaluation
uses (Section VI-D); the others provide the density/community regimes of
its real-world datasets (see "Datasets" in docs/benchmarks.md).
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.graph import Graph


def _rng(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(seed)


def erdos_renyi_gnm(n: int, m: int, seed: int | None = None) -> Graph:
    """Uniform random graph with exactly ``n`` nodes and ``m`` edges."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise InvalidParameterError(f"m={m} exceeds max edges {max_edges} for n={n}")
    rng = _rng(seed)
    edges: set[tuple[int, int]] = set()
    # Dense regime: sample from the full edge universe without replacement.
    if max_edges and m > max_edges // 2:
        idx = rng.choice(max_edges, size=m, replace=False)
        for e in idx:
            u = int((1 + np.sqrt(1 + 8 * e)) // 2)
            v = int(e - u * (u - 1) // 2)
            edges.add((v, u))
    else:
        while len(edges) < m:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def erdos_renyi_gnp(n: int, p: float, seed: int | None = None) -> Graph:
    """G(n, p) random graph via geometric edge skipping (O(n + m))."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"p must be in [0, 1], got {p}")
    rng = _rng(seed)
    edges: list[tuple[int, int]] = []
    if p == 0.0:
        return Graph(n, edges)
    if p == 1.0:
        return complete_graph(n)
    lp = np.log1p(-p)
    if lp == 0.0:
        # p is below float resolution: no edge fires in n(n-1)/2 trials.
        return Graph(n, edges)
    max_skip = n * n + 1  # past the last possible edge slot
    v, w = 1, -1
    while v < n:
        with np.errstate(over="ignore", divide="ignore"):
            skip = np.log(1.0 - rng.random()) / lp
        w += 1 + int(min(skip, max_skip))
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    """K_n."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def watts_strogatz(n: int, degree: int, p: float, seed: int | None = None) -> Graph:
    """Watts–Strogatz small-world graph (the paper's synthetic model).

    Starts from a ring lattice where each node connects to ``degree // 2``
    neighbours on each side, then rewires each edge's far endpoint with
    probability ``p``. ``degree`` must be even and less than ``n``.
    """
    if degree % 2 or degree >= n:
        raise InvalidParameterError(
            f"degree must be even and < n; got degree={degree}, n={n}"
        )
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"p must be in [0, 1], got {p}")
    rng = _rng(seed)
    half = degree // 2
    adj: list[set[int]] = [set() for _ in range(n)]

    def add(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)

    for u in range(n):
        for j in range(1, half + 1):
            add(u, (u + j) % n)
    for j in range(1, half + 1):
        for u in range(n):
            v = (u + j) % n
            if rng.random() < p and v in adj[u]:
                candidates = n - 1 - len(adj[u])
                if candidates <= 0:
                    continue
                w = int(rng.integers(n))
                while w == u or w in adj[u]:
                    w = int(rng.integers(n))
                adj[u].discard(v)
                adj[v].discard(u)
                add(u, w)
    edges = [(u, v) for u in range(n) for v in sorted(adj[u]) if u < v]
    return Graph(n, edges)


def barabasi_albert(n: int, m_attach: int, seed: int | None = None) -> Graph:
    """Barabási–Albert preferential-attachment graph.

    Each arriving node attaches to ``m_attach`` existing nodes sampled
    proportionally to degree (repeated-node trick).
    """
    if m_attach < 1 or m_attach >= n:
        raise InvalidParameterError(
            f"m_attach must be in [1, n); got m_attach={m_attach}, n={n}"
        )
    rng = _rng(seed)
    edges: list[tuple[int, int]] = []
    repeated: list[int] = list(range(m_attach))
    for u in range(m_attach, n):
        targets: set[int] = set()
        while len(targets) < m_attach:
            pick = repeated[int(rng.integers(len(repeated)))] if repeated else int(
                rng.integers(u)
            )
            targets.add(pick)
        for v in targets:
            edges.append((v, u))
            repeated.append(v)
        repeated.extend([u] * m_attach)
    return Graph(n, edges)


def powerlaw_cluster(
    n: int, m_attach: int, triangle_p: float, seed: int | None = None
) -> Graph:
    """Holme–Kim power-law graph with tunable clustering.

    Like Barabási–Albert, but after each preferential attachment a
    triangle-closing step connects to a random neighbour of the previous
    target with probability ``triangle_p``. High ``triangle_p`` produces
    the clique-rich profile of real social networks.
    """
    if m_attach < 1 or m_attach >= n:
        raise InvalidParameterError(
            f"m_attach must be in [1, n); got m_attach={m_attach}, n={n}"
        )
    if not 0.0 <= triangle_p <= 1.0:
        raise InvalidParameterError(f"triangle_p must be in [0, 1], got {triangle_p}")
    rng = _rng(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    repeated: list[int] = list(range(m_attach))

    def add(u: int, v: int) -> bool:
        if u == v or v in adj[u]:
            return False
        adj[u].add(v)
        adj[v].add(u)
        repeated.append(v)
        return True

    for u in range(m_attach, n):
        added = 0
        last_target: int | None = None
        while added < m_attach:
            if (
                last_target is not None
                and rng.random() < triangle_p
                and adj[last_target]
            ):
                # int-element set: CPython hashes ints identically under
                # every PYTHONHASHSEED, so this iteration order is a pure
                # function of the seeded insertion sequence. Sorting here
                # would re-deal every pinned powerlaw instance downstream.
                pool = [w for w in adj[last_target] if w != u and w not in adj[u]]  # repro-lint: ignore=iterorder
                if pool:
                    v = pool[int(rng.integers(len(pool)))]
                    add(u, v)
                    added += 1
                    last_target = v
                    continue
            v = repeated[int(rng.integers(len(repeated)))]
            if add(u, v):
                added += 1
                last_target = v
        repeated.extend([u] * m_attach)
    edges = [(u, v) for u in range(n) for v in sorted(adj[u]) if u < v]
    return Graph(n, edges)


def planted_partition(
    n: int,
    communities: int,
    p_in: float,
    p_out: float,
    seed: int | None = None,
) -> Graph:
    """Planted-partition (stochastic block) graph with equal communities."""
    if communities < 1 or communities > n:
        raise InvalidParameterError(
            f"communities must be in [1, n]; got {communities}, n={n}"
        )
    rng = _rng(seed)
    labels = np.arange(n) % communities
    edges: list[tuple[int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if labels[u] == labels[v] else p_out
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


def planted_clique_packing(
    num_cliques: int,
    k: int,
    extra_nodes: int = 0,
    noise_edges: int = 0,
    seed: int | None = None,
) -> tuple[Graph, list[frozenset[int]]]:
    """Graph that provably contains ``num_cliques`` disjoint k-cliques.

    Builds ``num_cliques`` vertex-disjoint copies of K_k plus
    ``extra_nodes`` isolated fillers, then sprinkles ``noise_edges``
    random edges *between* different cliques/fillers (never inside, so
    the planted packing stays identifiable). Returns the graph and the
    planted cliques — a ground-truth oracle for solver tests: the optimum
    is at least ``num_cliques``.
    """
    rng = _rng(seed)
    n = num_cliques * k + extra_nodes
    edges: list[tuple[int, int]] = []
    planted: list[frozenset[int]] = []
    for c in range(num_cliques):
        members = list(range(c * k, (c + 1) * k))
        planted.append(frozenset(members))
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                edges.append((u, v))
    block = np.arange(n) // k
    block[num_cliques * k :] = -np.arange(1, extra_nodes + 1)
    existing = set(edges)
    added = 0
    attempts = 0
    while added < noise_edges and attempts < 50 * max(noise_edges, 1):
        attempts += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v or block[u] == block[v]:
            continue
        e = (min(u, v), max(u, v))
        if e in existing:
            continue
        existing.add(e)
        edges.append(e)
        added += 1
    return Graph(n, edges), planted


def ring_of_cliques(num_cliques: int, k: int) -> Graph:
    """``num_cliques`` k-cliques joined in a ring by single bridge edges.

    A classic worst-ish case for greedy packers: the bridges create
    overlapping near-cliques without changing the optimum.
    """
    n = num_cliques * k
    edges: list[tuple[int, int]] = []
    for c in range(num_cliques):
        members = list(range(c * k, (c + 1) * k))
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                edges.append((u, v))
        bridge_from = members[-1]
        bridge_to = ((c + 1) % num_cliques) * k
        if bridge_from != bridge_to:
            edges.append((min(bridge_from, bridge_to), max(bridge_from, bridge_to)))
    return Graph(n, edges)
