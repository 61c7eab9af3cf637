"""Differential tests: batched vs per-edge dynamic maintenance.

For seeded random graphs under the paper's three Section VI-E workloads
(deletion / insertion / mixed), the batched path must end in a state
satisfying every Section V invariant **after every batch** (validity,
maximality, exact candidate index — ``check_invariants``), reach the
same final graph as per-edge application, and deliver a solution at
least as large as the per-edge trajectory (the batch path closes each
batch with a maximality sweep, so on these pinned seeds it never
trails; both trajectories are fully deterministic). Both repair engines
are exercised, each forced by the ``force_dynamic_engine`` fixture, and
must produce *identical* solutions — batch maintenance canonicalises
discovery order, so the set recursion and the CSR patch follow the same
trajectory, not merely equally-good ones.
"""

import pytest

from repro import Session
from repro.dynamic import DynamicDisjointCliques, iter_batches, make_workload
from repro.graph.generators import erdos_renyi_gnm, powerlaw_cluster

WORKLOADS = ("deletion", "insertion", "mixed")


# (graph factory, k, update count); seeds below are pinned — both paths
# are deterministic, so the >=-size comparison is stable.
CASES = [
    pytest.param(lambda s: erdos_renyi_gnm(60, 260, seed=s), 3, 20, id="gnm-k3"),
    pytest.param(lambda s: powerlaw_cluster(90, 6, 0.5, seed=s), 3, 20, id="pl-k3"),
    pytest.param(lambda s: erdos_renyi_gnm(60, 300, seed=s), 4, 15, id="gnm-k4"),
]
SEEDS = (1, 2, 4, 5)


@pytest.mark.parametrize("engine", ["sets", "csr"])
@pytest.mark.parametrize("make_graph,k,count", CASES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_batch_matches_per_edge(
    make_graph, k, count, seed, workload, engine, force_dynamic_engine
):
    force_dynamic_engine(engine)
    graph = make_graph(seed)
    start, updates = make_workload(graph, workload, count, seed + 50)

    per_edge = DynamicDisjointCliques(start, k)
    per_edge.apply(updates)
    per_edge.check_invariants()

    for batch_size in (len(updates), 7):
        batched = DynamicDisjointCliques(start, k)
        for chunk in iter_batches(updates, batch_size):
            batched.apply_batch(chunk)
            batched.check_invariants()
        assert set(batched.graph.edges()) == set(per_edge.graph.edges())
        assert batched.size >= per_edge.size


@pytest.mark.parametrize("make_graph,k,count", CASES)
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_backends_identical_trajectories(
    make_graph, k, count, seed, force_dynamic_engine
):
    """Both repair engines yield the same solutions, not just sizes."""
    graph = make_graph(seed)
    start, updates = make_workload(graph, "mixed", count, seed + 50)
    results = {}
    for engine in ("sets", "csr"):
        force_dynamic_engine(engine)
        dyn = DynamicDisjointCliques(start, k)
        dyn.apply(updates, batch_size=6)
        results[engine] = dyn.solution().sorted_cliques()
    assert results["sets"] == results["csr"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_apply_batch_single_shot_invariants(workload):
    """One whole workload as a single batch keeps every invariant."""
    graph = powerlaw_cluster(120, 5, 0.5, seed=3)
    start, updates = make_workload(graph, workload, 25, 9)
    dyn = DynamicDisjointCliques(start, 3)
    batch = dyn.apply_batch(updates)
    assert batch.effective + batch.nops == len(updates)
    dyn.check_invariants()


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("engine", ["sets", "csr"])
def test_batch_matches_per_edge_larger(workload, engine, force_dynamic_engine):
    """The same differential contract at a larger, slower scale."""
    force_dynamic_engine(engine)
    graph = powerlaw_cluster(400, 6, 0.6, seed=5)
    start, updates = make_workload(graph, workload, 60, 17)
    per_edge = DynamicDisjointCliques(start, 3)
    per_edge.apply(updates)
    batched = DynamicDisjointCliques(start, 3)
    for chunk in iter_batches(updates, 25):
        batched.apply_batch(chunk)
        batched.check_invariants()
    assert set(batched.graph.edges()) == set(per_edge.graph.edges())
    assert batched.size >= per_edge.size


class TestSessionDynamic:
    def test_session_dynamic_reuses_preprocessing(self):
        graph = powerlaw_cluster(150, 5, 0.5, seed=2)
        session = Session(graph)
        session.warm([3])
        passes_before = session.prep.stats["score_passes"]
        dyn = session.dynamic(3)
        # The initial solve went through the session cache: no extra
        # score pass was paid for it.
        assert session.prep.stats["score_passes"] == passes_before
        dyn.check_invariants()
        assert dyn.size == session.solve(3).size

    def test_session_dynamic_is_independent_of_session(self):
        graph = powerlaw_cluster(80, 4, 0.4, seed=1)
        session = Session(graph)
        dyn = session.dynamic(3)
        before = session.graph.m
        u, v = next(iter(dyn.graph.edges()))
        dyn.delete_edge(u, v)
        assert session.graph.m == before  # session snapshot untouched
        dyn.check_invariants()

    def test_session_dynamic_rejects_bad_k(self):
        from repro.errors import InvalidParameterError

        session = Session(erdos_renyi_gnm(10, 20, seed=0))
        with pytest.raises(InvalidParameterError):
            session.dynamic(1)

    def test_initial_solution_validated(self):
        from repro.core.result import CliqueSetResult
        from repro.errors import SolutionError

        graph = powerlaw_cluster(40, 4, 0.4, seed=4)
        # An empty "solution" is valid but not maximal on this graph.
        bogus = CliqueSetResult([], k=3, method="bogus")
        with pytest.raises(SolutionError):
            DynamicDisjointCliques(graph, 3, initial=bogus)
