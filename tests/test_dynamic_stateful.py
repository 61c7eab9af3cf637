"""Stateful hypothesis test: the maintainer under arbitrary update streams.

Models the dynamic maintainer as a state machine whose rules insert and
delete arbitrary edges — singly (Algorithms 6/7) or through
``apply_batch`` with arbitrary random batches, including empty and
self-cancelling insert+delete ones, so batched and per-edge maintenance
are fuzzed interleaved. After *every* rule the three Section V
invariants are checked: solution validity, maximality, and exact
candidate-index agreement with the from-scratch definition. A shadow
edge-set model additionally pins the graph state itself.
"""

import sys

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import Graph
from repro.core.result import is_maximal, verify_solution
from repro.dynamic import DynamicDisjointCliques, index

N = 12
K = 3

node = st.integers(0, N - 1)
edge = st.tuples(node, node).filter(lambda e: e[0] != e[1])
op = st.sampled_from(["insert", "delete"])
update = st.tuples(op, node, node).filter(lambda t: t[1] != t[2])
# Batches mix independent random updates with deliberate insert+delete
# pairs of one edge (which must coalesce to a no-op), in random order;
# empty batches are legal and must be no-ops too.
cancelling_pair = edge.flatmap(
    lambda e: st.permutations([("insert", e[0], e[1]), ("delete", e[0], e[1])])
)
batch = st.lists(
    st.one_of(update.map(lambda u: [u]), cancelling_pair),
    min_size=0,
    max_size=5,
).map(lambda groups: [u for group in groups for u in group])


class MaintainerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dyn = DynamicDisjointCliques(Graph(N), K)
        self.model_edges: set[tuple[int, int]] = set()

    @rule(u=node, v=node)
    def insert(self, u, v):
        if u == v:
            return
        edge = (min(u, v), max(u, v))
        applied = self.dyn.insert_edge(u, v)
        assert applied == (edge not in self.model_edges)
        self.model_edges.add(edge)

    @rule(u=node, v=node)
    def delete(self, u, v):
        if u == v:
            return
        edge = (min(u, v), max(u, v))
        applied = self.dyn.delete_edge(u, v)
        assert applied == (edge in self.model_edges)
        self.model_edges.discard(edge)

    @rule(updates=batch, engine=st.sampled_from(["sets", "csr", "rule"]))
    def apply_batch(self, updates, engine):
        # Regions of a 12-node graph never reach the CSR patch under the
        # region rule, so "sets"/"csr" pin the engine by patching its
        # two thresholds; "rule" leaves them alone.
        with pytest.MonkeyPatch.context() as patch:
            if engine != "rule":
                limit = 0 if engine == "csr" else sys.maxsize
                patch.setattr(index, "AUTO_DIRTY_THRESHOLD", limit)
                patch.setattr(index, "PATCH_EDGE_THRESHOLD", limit)
            planned = self.dyn.apply_batch(updates)
        assert planned.effective + planned.nops == len(updates)
        # The shadow model replays the stream sequentially; the planner's
        # last-op-wins coalescing must land on the same edge set.
        for op_name, u, v in updates:
            e = (min(u, v), max(u, v))
            if op_name == "insert":
                self.model_edges.add(e)
            else:
                self.model_edges.discard(e)

    @invariant()
    def graph_matches_model(self):
        assert set(self.dyn.graph.edges()) == self.model_edges

    @invariant()
    def solution_valid_and_maximal(self):
        solution = self.dyn.index.solution.values()
        verify_solution(self.dyn.graph, K, solution)
        assert is_maximal(self.dyn.graph, K, solution)

    @invariant()
    def index_exact(self):
        self.dyn.index.check_consistency()


MaintainerMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)
TestMaintainerStateful = MaintainerMachine.TestCase
