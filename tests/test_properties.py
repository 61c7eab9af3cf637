"""Hypothesis property tests for core invariants across the package."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import Graph, find_disjoint_cliques, is_maximal, verify_solution
from repro.cliques import count_cliques, node_scores
from repro.core.scores import degree_bounds
from repro.cliques.clique_graph import build_clique_graph
from repro.graph.generators import erdos_renyi_gnp
from repro.graph.kcore import core_numbers


graphs = st.builds(
    erdos_renyi_gnp,
    n=st.integers(min_value=0, max_value=24),
    p=st.floats(min_value=0.0, max_value=0.55),
    seed=st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=25, deadline=None)
@given(g=graphs, k=st.integers(min_value=2, max_value=5))
def test_every_method_valid_and_maximal(g: Graph, k: int):
    for method in ("hg", "gc", "l", "lp"):
        result = find_disjoint_cliques(g, k, method=method)
        verify_solution(g, k, result.cliques)
        assert is_maximal(g, k, result.cliques)


@settings(max_examples=25, deadline=None)
@given(g=graphs, k=st.integers(min_value=2, max_value=5))
def test_score_sum_identity(g: Graph, k: int):
    scores = node_scores(g, k)
    assert scores.sum() == k * count_cliques(g, k)
    assert (scores >= 0).all()


small_graphs = st.builds(
    erdos_renyi_gnp,
    n=st.integers(min_value=0, max_value=22),
    p=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=20, deadline=None)
@given(g=small_graphs)
def test_theorem2_bounds(g: Graph):
    k = 3
    cg = build_clique_graph(g, k)
    scores = node_scores(g, k)
    for i, clique in enumerate(cg.cliques):
        lo, hi = degree_bounds(clique, scores, k)
        assert lo <= cg.degree_of(i) <= hi


@settings(max_examples=25, deadline=None)
@given(g=graphs)
def test_core_numbers_characterisation(g: Graph):
    core = core_numbers(g)
    # Each node's core number is at most its degree.
    assert all(core[u] <= g.degree(u) for u in g.nodes())
    # The c-core induced subgraph has min degree >= c for the max core.
    if g.n:
        c = int(core.max())
        members = {u for u in g.nodes() if core[u] >= c}
        for u in members:
            assert len(g.neighbors(u) & members) >= c or c == 0


@settings(max_examples=25, deadline=None)
@given(g=graphs, k=st.integers(min_value=2, max_value=4))
def test_solution_sizes_ordered(g: Graph, k: int):
    # GC == LP always; HG differs but stays within the k-approximation
    # band of the larger of the two.
    gc = find_disjoint_cliques(g, k, method="gc").size
    lp = find_disjoint_cliques(g, k, method="lp").size
    hg = find_disjoint_cliques(g, k, method="hg").size
    assert gc == lp
    best = max(lp, hg)
    assert min(lp, hg) >= best / k  # both are k-approximations of OPT >= best


@settings(max_examples=20, deadline=None)
@given(
    g=graphs,
    k=st.integers(min_value=3, max_value=4),
)
def test_upper_bounds_dominate_heuristics(g: Graph, k: int):
    from repro.analysis import optimum_upper_bounds

    lp = find_disjoint_cliques(g, k, method="lp").size
    assert optimum_upper_bounds(g, k).best >= lp


@settings(max_examples=20, deadline=None)
@given(g=graphs)
def test_complement_involution(g: Graph):
    assert g.complement().complement() == g


@settings(max_examples=20, deadline=None)
@given(g=graphs, seed=st.integers(min_value=0, max_value=1000))
def test_edge_removal_monotone(g: Graph, seed: int):
    edges = list(g.edges())
    if not edges:
        return
    rng = np.random.default_rng(seed)
    u, v = edges[int(rng.integers(len(edges)))]
    smaller = g.remove_edges([(u, v)])
    assert count_cliques(smaller, 3) <= count_cliques(g, 3)


@st.composite
def update_streams(draw):
    """A small random graph plus 1-3 random ``apply_batch`` batches."""
    n = draw(st.integers(min_value=2, max_value=14))
    g = erdos_renyi_gnp(
        n,
        draw(st.floats(min_value=0.0, max_value=0.6)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda e: e[0] != e[1])
    update = st.tuples(st.sampled_from(["insert", "delete"]), pairs).map(
        lambda t: (t[0], t[1][0], t[1][1])
    )
    batches = draw(
        st.lists(st.lists(update, min_size=1, max_size=10), min_size=1, max_size=3)
    )
    return g, batches


@settings(max_examples=30, deadline=None)
@given(
    stream=update_streams(),
    k=st.integers(min_value=3, max_value=4),
    method=st.sampled_from(["hg", "gc", "l", "lp"]),
)
def test_theorem3_holds_after_every_batch(stream, k: int, method: str):
    """Theorem 3 on the dynamic path: after every ``apply_batch`` the
    maintained solution is valid and maximal, hence ``k·|S| >= |OPT|``
    against the exact optimum of the current graph."""
    from repro.core.exact_bb import exact_optimum_bb
    from repro.dynamic.maintainer import DynamicDisjointCliques

    g, batches = stream
    dyn = DynamicDisjointCliques(g, k, method=method)
    for batch in batches:
        dyn.apply_batch(batch)
        current = dyn.graph.snapshot()
        cliques = dyn.solution().cliques
        verify_solution(current, k, cliques)
        assert is_maximal(current, k, cliques)
        opt = exact_optimum_bb(current, k).size
        assert len(cliques) <= opt <= k * len(cliques)
