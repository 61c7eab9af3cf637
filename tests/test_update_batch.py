"""Property tests for the batched-update planner (UpdateBatch) and
the stream chunker (iter_batches)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dynamic import DynamicDisjointCliques, UpdateBatch, iter_batches
from repro.dynamic.batch import validate_update
from repro.errors import GraphError, InvalidParameterError
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi_gnm

N = 10

node = st.integers(0, N - 1)
update = st.tuples(
    st.sampled_from(["insert", "delete"]), node, node
).filter(lambda t: t[1] != t[2])
streams = st.lists(update, max_size=30)
graphs = st.builds(
    erdos_renyi_gnm,
    n=st.just(N),
    m=st.integers(0, 20),
    seed=st.integers(0, 500),
)


def replay(graph: DynamicGraph, updates) -> set[tuple[int, int]]:
    """Sequential edge-set semantics of a stream (the ground truth)."""
    edges = set(graph.edges())
    for op, u, v in updates:
        e = (min(u, v), max(u, v))
        if op == "insert":
            edges.add(e)
        else:
            edges.discard(e)
    return edges


class TestCoalescing:
    def test_insert_then_delete_is_noop(self):
        g = DynamicGraph(4, [(0, 1)])
        batch = UpdateBatch.plan([("insert", 2, 3), ("delete", 2, 3)], g)
        assert batch.is_noop
        assert batch.nops == 2 and batch.effective == 0
        assert len(batch) == 2

    def test_delete_then_insert_of_present_edge_is_noop(self):
        g = DynamicGraph(4, [(0, 1)])
        batch = UpdateBatch.plan([("delete", 0, 1), ("insert", 0, 1)], g)
        assert batch.is_noop and batch.nops == 2

    def test_last_op_wins(self):
        g = DynamicGraph(4)
        batch = UpdateBatch.plan(
            [("insert", 0, 1), ("delete", 0, 1), ("insert", 0, 1)], g
        )
        assert batch.inserts == ((0, 1),) and not batch.deletes
        assert batch.nops == 2

    def test_duplicates_collapse(self):
        g = DynamicGraph(4)
        batch = UpdateBatch.plan([("insert", 1, 0)] * 5, g)
        assert batch.inserts == ((0, 1),)
        assert batch.nops == 4

    def test_matching_state_is_nop(self):
        g = DynamicGraph(4, [(0, 1)])
        batch = UpdateBatch.plan([("insert", 0, 1), ("delete", 2, 3)], g)
        assert batch.is_noop and batch.nops == 2

    def test_endpoints_normalised_to_plain_ints(self):
        import numpy as np

        g = DynamicGraph(4)
        batch = UpdateBatch.plan([("insert", np.int64(3), np.int64(1))], g)
        (edge,) = batch.inserts
        assert edge == (1, 3)
        assert all(type(x) is int for x in edge)

    @settings(max_examples=60, deadline=None)
    @given(g=graphs, updates=streams)
    def test_plan_matches_sequential_replay(self, g, updates):
        dyn = DynamicGraph.from_graph(g)
        batch = UpdateBatch.plan(updates, dyn)
        dyn.delete_edges(batch.deletes)
        dyn.insert_edges(batch.inserts)
        assert set(dyn.edges()) == replay(DynamicGraph.from_graph(g), updates)
        assert batch.effective + batch.nops == len(updates)

    @settings(max_examples=40, deadline=None)
    @given(
        g=graphs,
        updates=st.lists(update, max_size=12, unique_by=lambda t: (min(t[1], t[2]), max(t[1], t[2]))),
        seed=st.integers(0, 1000),
    )
    def test_commuting_updates_permute_to_identical_plans(self, g, updates, seed):
        """Ops on distinct edges commute: any order plans identically."""
        import random

        dyn = DynamicGraph.from_graph(g)
        base = UpdateBatch.plan(updates, dyn)
        shuffled = updates[:]
        random.Random(seed).shuffle(shuffled)
        other = UpdateBatch.plan(shuffled, dyn)
        assert set(base.inserts) == set(other.inserts)
        assert set(base.deletes) == set(other.deletes)
        assert base.nops == other.nops

    @settings(max_examples=25, deadline=None)
    @given(updates=st.lists(update, max_size=10), seed=st.integers(0, 1000))
    def test_permuted_commuting_batches_yield_identical_graphs(self, updates, seed):
        """Applying a permutation of a distinct-edge batch through the
        maintainer lands on the same graph (and a valid state)."""
        import random

        seen = set()
        distinct = []
        for op, u, v in updates:
            e = (min(u, v), max(u, v))
            if e not in seen:
                seen.add(e)
                distinct.append((op, u, v))
        g = erdos_renyi_gnm(N, 12, seed=3)
        a = DynamicDisjointCliques(g, 3)
        a.apply_batch(distinct)
        shuffled = distinct[:]
        random.Random(seed).shuffle(shuffled)
        b = DynamicDisjointCliques(g, 3)
        b.apply_batch(shuffled)
        assert set(a.graph.edges()) == set(b.graph.edges())
        a.check_invariants()
        b.check_invariants()


class TestValidation:
    def test_unknown_op_rejected(self):
        g = DynamicGraph(4)
        with pytest.raises(InvalidParameterError):
            UpdateBatch.plan([("frobnicate", 0, 1)], g)

    def test_self_loop_rejected(self):
        g = DynamicGraph(4)
        with pytest.raises(GraphError):
            UpdateBatch.plan([("insert", 2, 2)], g)

    def test_out_of_range_rejected(self):
        g = DynamicGraph(4)
        with pytest.raises(GraphError):
            UpdateBatch.plan([("insert", 0, 9)], g)

    def test_validation_is_transactional(self):
        """A bad op anywhere in the stream leaves the maintainer untouched."""
        g = erdos_renyi_gnm(8, 10, seed=1)
        dyn = DynamicDisjointCliques(g, 3)
        edges_before = set(dyn.graph.edges())
        size_before = dyn.size
        with pytest.raises(InvalidParameterError):
            dyn.apply_batch([("insert", 0, 1), ("bogus", 1, 2)])
        assert set(dyn.graph.edges()) == edges_before
        assert dyn.size == size_before
        dyn.check_invariants()


def reference_plan(updates, graph) -> UpdateBatch:
    """The former planner: per-update validation, a first-touched edge
    list beside the desired states, and ``has_edge`` per edge."""
    desired: dict = {}
    order: list = []
    total = 0
    n = graph.n
    for op, u, v in updates:
        total += 1
        want, u, v = validate_update(op, u, v, n)
        edge = (u, v) if u < v else (v, u)
        if edge not in desired:
            order.append(edge)
        desired[edge] = want
    inserts, deletes = [], []
    for edge in order:
        present = graph.has_edge(*edge)
        if desired[edge] and not present:
            inserts.append(edge)
        elif not desired[edge] and present:
            deletes.append(edge)
    return UpdateBatch(tuple(inserts), tuple(deletes), total - len(inserts) - len(deletes))


def outcome(plan, updates, graph):
    """``("ok", batch)`` or ``("error", type, message, updates read)``."""
    read = []

    def stream():
        for update in updates:
            read.append(update)
            yield update

    try:
        batch = plan(stream(), graph)
    except Exception as exc:  # the error itself is what gets compared
        return ("error", type(exc), str(exc), len(read))
    return ("ok", batch, [tuple(map(type, edge)) for edge in batch.inserts + batch.deletes])


#: Endpoints of every kind the endpoint rule sees: in range, out of
#: range (negative, n, huge), numpy integers and bools (accepted), and
#: floats and strings (rejected).
endpoints = st.one_of(
    node,
    st.integers(-3, N + 2),
    st.sampled_from([2**40, -(2**70)]),
    node.map(np.int64),
    node.map(np.uint8),
    st.booleans(),
    st.floats(0, N - 1),
    node.map(str),
)
ops = st.sampled_from(["insert", "delete", "insert", "delete", "frobnicate", "INSERT"])


class TestPlanAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(g=graphs, updates=streams)
    def test_valid_streams_plan_to_the_same_batch(self, g, updates):
        dyn = DynamicGraph.from_graph(g)
        assert outcome(UpdateBatch.plan, updates, dyn) == outcome(reference_plan, updates, dyn)

    @settings(max_examples=300, deadline=None)
    @given(
        g=graphs,
        valid=streams,
        bad=st.lists(st.tuples(ops, endpoints, endpoints), min_size=1, max_size=4),
        at=st.integers(0, 30),
    )
    def test_malformed_streams_fail_at_the_same_update(self, g, valid, bad, at):
        dyn = DynamicGraph.from_graph(g)
        updates = valid[:at] + bad + valid[at:]
        assert outcome(UpdateBatch.plan, updates, dyn) == outcome(reference_plan, updates, dyn)

    @pytest.mark.parametrize(
        "updates, error, message, read",
        [
            ([("insert", 0, 1), ("bogus", 1, 2), ("insert", 3, 3)], InvalidParameterError, "unknown update op 'bogus'", 2),
            ([("insert", 0, 1), ("insert", 3, 3), ("bogus", 1, 2)], GraphError, "self-loop on node 3", 2),
            ([("delete", 1.0, 2), ("bogus", 1, 2)], GraphError, "non-integer endpoint", 1),
            ([("insert", 0, "2")], GraphError, "non-integer endpoint", 1),
            ([("insert", 0, N)], GraphError, f"outside node range [0, {N})", 1),
            ([("insert", -1, 2)], GraphError, f"outside node range [0, {N})", 1),
            ([("bogus", 0, N), ("insert", 0, N)], InvalidParameterError, "unknown update op", 1),
        ],
    )
    def test_first_offending_update_names_the_error(self, updates, error, message, read):
        dyn = DynamicGraph(N)
        got = outcome(UpdateBatch.plan, updates, dyn)
        assert got == outcome(reference_plan, updates, dyn)
        assert got[0] == "error" and got[1] is error and got[3] == read
        assert message in got[2]

    @settings(max_examples=60, deadline=None)
    @given(g=graphs, updates=streams, seeded=st.booleans())
    def test_planned_edges_land_like_the_checked_updates(self, g, updates, seeded):
        """The unchecked apply of a plan leaves the same graph and CSR
        mirror as the public, checked edge updates."""
        fast, slow = DynamicGraph.from_graph(g), DynamicGraph.from_graph(g)
        if not seeded:
            fast, slow = DynamicGraph(g.n, g.edges()), DynamicGraph(g.n, g.edges())
        batch = UpdateBatch.plan(updates, fast)
        fast._apply_net(batch.deletes, batch.inserts)
        slow.delete_edges(batch.deletes)
        slow.insert_edges(batch.inserts)
        assert fast.m == slow.m
        assert sorted(fast.edges()) == sorted(slow.edges())
        assert [fast.neighbors(u) for u in fast.nodes()] == [slow.neighbors(u) for u in slow.nodes()]
        for got, want in ((fast.csr(), slow.csr()), (fast.csr(), fast.snapshot().csr())):
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.cols, want.cols)


class TestIterBatches:
    def test_chunking(self):
        updates = [("insert", 0, i) for i in range(1, 8)]
        chunks = list(iter_batches(updates, 3))
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert [u for c in chunks for u in c] == updates

    def test_empty_stream(self):
        assert list(iter_batches([], 4)) == []

    def test_bad_batch_size(self):
        with pytest.raises(InvalidParameterError):
            list(iter_batches([("insert", 0, 1)], 0))

    def test_apply_with_batch_size_equals_plain_apply_graphwise(self):
        g = erdos_renyi_gnm(12, 30, seed=2)
        from repro.dynamic.workload import mixed_workload

        start, updates = mixed_workload(g, 8, seed=5)
        a = DynamicDisjointCliques(start, 3)
        a.apply(updates)
        b = DynamicDisjointCliques(start, 3)
        b.apply(updates, batch_size=3)
        assert set(a.graph.edges()) == set(b.graph.edges())
        b.check_invariants()


class TestEmptyAndStabilise:
    def test_empty_batch_is_cheap_noop(self):
        g = erdos_renyi_gnm(10, 15, seed=0)
        dyn = DynamicDisjointCliques(g, 3)
        batch = dyn.apply_batch([])
        assert batch.is_noop and len(batch) == 0
        dyn.check_invariants()

    def test_empty_batch_harvests_latent_swaps(self, fig5_g1):
        # G2 = G1 + (v5, v7) solved by HG can start swap-unstable; an
        # empty batch acts as an explicit stabilisation point.
        g2 = fig5_g1.add_edges([(4, 6)])
        dyn = DynamicDisjointCliques(g2, 3, method="hg")
        before = dyn.size
        dyn.apply_batch([])
        dyn.check_invariants()
        assert dyn.size >= before
