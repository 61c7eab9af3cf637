"""Tests for node-level dynamic updates (bundled edge updates)."""

import pytest

from repro import Graph
from repro.dynamic import DynamicDisjointCliques, make_workload
from repro.graph.generators import erdos_renyi_gnp


class TestRemoveNode:
    def test_removing_clique_member_repairs(self, triangle_pair):
        dyn = DynamicDisjointCliques(triangle_pair, 3)
        assert dyn.size == 2
        removed = dyn.remove_node(0)
        assert removed == 2
        assert dyn.size == 1
        assert dyn.graph.degree(0) == 0
        dyn.check_invariants()

    def test_removing_free_node(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 0), (4, 0)])
        dyn = DynamicDisjointCliques(g, 3)
        removed = dyn.remove_node(3)
        assert removed == 1
        assert dyn.size == 1
        dyn.check_invariants()

    def test_removing_isolated_node(self, triangle_pair):
        g = Graph(7, list(triangle_pair.edges()))
        dyn = DynamicDisjointCliques(g, 3)
        assert dyn.remove_node(6) == 0
        dyn.check_invariants()

    def test_replacement_found_after_removal(self):
        # Triangle {0,1,2} with a spare node 3 adjacent to 1 and 2:
        # removing node 0 lets {1,2,3} take over.
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (3, 1), (3, 2)])
        dyn = DynamicDisjointCliques(g, 3)
        dyn.remove_node(0)
        assert dyn.size == 1
        assert dyn.solution().cliques[0] == frozenset({1, 2, 3})
        dyn.check_invariants()


class TestAddNode:
    def test_player_joining_forms_clique(self, triangle_pair):
        dyn = DynamicDisjointCliques(triangle_pair, 3)
        dyn.delete_edge(3, 4)  # break second triangle: |S| = 1
        assert dyn.size == 1
        # The new player befriends 3 and 5 (who are already friends), so
        # {3, 5, new} forms a fresh clique.
        new = dyn.add_node(neighbors=[3, 5])
        assert new == 6
        assert dyn.size == 2
        assert frozenset({3, 5, 6}) in set(dyn.solution().cliques)
        dyn.check_invariants()

    def test_isolated_join(self, triangle_pair):
        dyn = DynamicDisjointCliques(triangle_pair, 3)
        node = dyn.add_node()
        assert dyn.graph.degree(node) == 0
        assert dyn.size == 2
        dyn.check_invariants()

    def test_churn_cycle(self, triangle_pair):
        dyn = DynamicDisjointCliques(triangle_pair, 3)
        node = dyn.add_node(neighbors=[0, 1, 2])
        dyn.remove_node(node)
        assert dyn.size == 2
        dyn.check_invariants()

    @pytest.mark.parametrize("k", [3, 4])
    def test_added_nodes_on_the_csr_patch_match_the_sets(self, force_dynamic_engine, k):
        """Nodes added after construction are labelled free in the
        index's owner array, so a batch through them runs on the CSR
        patch and ends in the set engine's state."""
        start, updates = make_workload(erdos_renyi_gnp(30, 0.4, seed=3), "mixed", 40, seed=5)
        states = []
        for engine in ("sets", "csr"):
            force_dynamic_engine(engine)
            dyn = DynamicDisjointCliques(start, k)
            a = dyn.add_node(neighbors=range(0, 30, 2))
            b = dyn.add_node()
            dyn.apply_batch(
                updates
                + [("insert", b, v) for v in (a, *range(0, 30, 3))]
                + [("delete", a, v) for v in range(0, 12, 2)]
            )
            dyn.check_invariants()
            index = dyn.index
            assert index.labels.tolist() == [index.owner_of.get(u, -1) for u in range(32)]
            states.append(
                (sorted(index.solution.items()), dyn.stats, index.owner_of_cand)
            )
        assert states[0] == states[1]
