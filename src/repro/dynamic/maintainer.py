"""Dynamic maintenance of a near-optimal disjoint k-clique set.

:class:`DynamicDisjointCliques` is the paper's Section V put together:
an initial static solve (LP by default), the candidate index
(Algorithm 5), swap operations (Algorithm 4) and the insertion/deletion
handlers (Algorithms 6 and 7), plus a batched update engine
(:meth:`DynamicDisjointCliques.apply_batch`) that coalesces a stream to
its net structural effect (:class:`repro.dynamic.batch.UpdateBatch`)
and repairs the solution and index with one deferred pass per batch.
After every public update — per-edge or batched — the following
invariants hold (property-tested in ``tests/test_dynamic_*.py`` and
differentially in ``tests/test_dynamic_batch_equivalence.py``):

* the solution is a valid disjoint k-clique set of the current graph;
* the solution is maximal (no k-clique among free nodes), hence still a
  k-approximation by Theorem 3;
* the candidate index matches its from-scratch definition exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.errors import InvalidParameterError
from repro.graph.dynamic import DynamicGraph
from repro.graph.graph import Graph
from repro.core.api import find_disjoint_cliques
from repro.core.result import CliqueSetResult, verify_solution
from repro.dynamic.batch import UpdateBatch
from repro.dynamic.index import CandidateIndex, Clique
from repro.dynamic.swap import select_disjoint, try_swap


class DynamicDisjointCliques:
    """Maintains a maximal disjoint k-clique set under edge updates.

    Parameters
    ----------
    graph:
        Initial graph; a private :class:`DynamicGraph` copy is kept.
    k:
        Clique size, ``>= 2``.
    method:
        Static solver for the initial solution (default ``"lp"``).
    initial:
        Optional precomputed initial solution (must be a valid *maximal*
        disjoint k-clique set of ``graph``); when given, ``method`` is
        not consulted and no static solve is run. This is how
        :meth:`repro.core.session.Session.dynamic` shares a session's
        cached preprocessing with the maintainer. A supplied solution is
        verified (:func:`repro.core.result.verify_solution`); the index
        build checks every start for maximality (see
        :meth:`repro.dynamic.index.CandidateIndex.build`). Either failure
        raises :class:`~repro.errors.SolutionError`.

    Examples
    --------
    >>> from repro.graph.generators import planted_clique_packing
    >>> g, _ = planted_clique_packing(3, 3, seed=0)
    >>> dyn = DynamicDisjointCliques(g, k=3)
    >>> dyn.size
    3
    >>> dyn.delete_edge(0, 1)      # break the first planted triangle
    >>> dyn.size
    2
    >>> dyn.insert_edge(0, 1)      # restore it
    >>> dyn.size
    3
    """

    def __init__(
        self,
        graph: Graph | DynamicGraph,
        k: int,
        method: str = "lp",
        initial: CliqueSetResult | None = None,
    ) -> None:
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        if isinstance(graph, Graph):
            self.graph = DynamicGraph.from_graph(graph)
        elif isinstance(graph, DynamicGraph):
            self.graph = DynamicGraph(graph.n, graph.edges())
        else:
            raise InvalidParameterError(
                f"graph must be Graph or DynamicGraph, got {type(graph).__name__}"
            )
        self.k = k
        self.stats: dict[str, float] = {
            "insertions": 0,
            "deletions": 0,
            "pops": 0,
            "swaps": 0,
            "swap_gain": 0,
            "direct_additions": 0,
            "destroyed_cliques": 0,
            "batches": 0,
            "coalesced_updates": 0,
        }
        if initial is None:
            static = graph if isinstance(graph, Graph) else self.graph.snapshot()
            initial = find_disjoint_cliques(static, k, method=method)
        elif initial.k != k:
            raise InvalidParameterError(
                f"initial solution was solved for k={initial.k}, expected {k}"
            )
        else:
            # On the dynamic copy: its sets exist already.
            verify_solution(self.graph, k, initial.cliques)
        self.index = CandidateIndex(self.graph, k)
        for clique in initial.cliques:
            self.index.add_solution_clique(clique)
        self.index.build()

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Current ``|S|``."""
        return len(self.index.solution)

    @property
    def index_size(self) -> int:
        """Number of candidate cliques (the paper's index size)."""
        return self.index.num_candidates

    def solution(self) -> CliqueSetResult:
        """Snapshot of the maintained solution."""
        return CliqueSetResult(
            # Owner-sorted listing: the solution dict's insertion order
            # encodes the update trajectory, which equivalent maintenance
            # paths are allowed to differ on; the snapshot must not.
            [self.index.solution[owner] for owner in sorted(self.index.solution)],
            k=self.k,
            method="dynamic",
            stats=dict(self.stats),
        )

    def free_nodes(self) -> set[int]:
        """Nodes not covered by any solution clique."""
        return {u for u in self.graph.nodes() if u not in self.index.owner_of}

    # ------------------------------------------------------------------
    # Update API
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> bool:
        """Algorithm 6. Returns ``False`` when the edge already existed."""
        if not self.graph.insert_edge(u, v):
            return False
        self.stats["insertions"] += 1
        u_free = self.index.is_free(u)
        v_free = self.index.is_free(v)
        if not u_free and not v_free:
            # Both covered: any new clique would contain (u, v) and two
            # non-free nodes; same owner is impossible (the edge would
            # have existed), different owners can't form a candidate.
            return True

        report = self.index.discover_through_edge(u, v)
        if u_free and v_free and report.all_free:
            # A brand-new clique among free nodes: add directly, no swap
            # cascade needed (no other owner gains candidates from it).
            self._absorb_all_free(report.all_free)
            return True
        if report.new_by_owner:
            queue: deque[int] = deque(
                owner for owner in report.new_by_owner if owner in self.index.solution
            )
            try_swap(self.index, queue, self.stats)
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Algorithm 7. Returns ``False`` when the edge was absent."""
        if not self.graph.delete_edge(u, v):
            return False
        self.stats["deletions"] += 1
        self.index.remove_candidates_with_edge(u, v)

        owner_u = self.index.owner_of.get(u)
        owner_v = self.index.owner_of.get(v)
        if owner_u is None or owner_u != owner_v:
            # The edge was not inside a solution clique; candidate
            # invalidation above is all that is needed.
            return True

        # The deletion split a solution clique: remove it, re-cover its
        # freed nodes from surviving local cliques, then cascade swaps.
        self.stats["destroyed_cliques"] += 1
        freed = self.index.remove_solution_clique(owner_u)
        report = self.index.refresh_nodes(freed)
        new_owners = self._absorb_all_free(report.all_free)
        queue: deque[int] = deque(
            owner for owner in report.new_by_owner if owner in self.index.solution
        )
        for owner in new_owners:
            if owner not in queue:
                queue.append(owner)
        try_swap(self.index, queue, self.stats)
        return True

    def add_node(self, neighbors: Iterable[int] = ()) -> int:
        """Add a node (a player joining), optionally wired to neighbours.

        The paper treats node updates as bundles of edge updates; each
        neighbour edge goes through :meth:`insert_edge` so the solution
        and index stay exact.
        """
        node = self.graph.add_node()
        self.index.add_free_node()
        for v in neighbors:
            self.insert_edge(node, v)
        return node

    def remove_node(self, u: int) -> int:
        """Detach a node (a player leaving) by deleting its edges.

        The node id stays allocated but isolated and free. Returns the
        number of edges removed.
        """
        removed = 0
        for v in sorted(self.graph.neighbors(u)):
            if self.delete_edge(u, v):
                removed += 1
        return removed

    def apply(
        self,
        updates: Iterable[tuple[str, int, int]],
        *,
        batch_size: int | None = None,
    ) -> None:
        """Apply a stream of ``("insert" | "delete", u, v)`` updates.

        With ``batch_size=None`` (default) every update goes through the
        per-edge handlers (Algorithms 6/7) — the legacy behaviour. With a
        positive ``batch_size``, consecutive chunks of that size are
        coalesced and applied through :meth:`apply_batch`, which shares
        one deferred repair pass per chunk.
        """
        if batch_size is None:
            for op, u, v in updates:
                if op == "insert":
                    self.insert_edge(u, v)
                elif op == "delete":
                    self.delete_edge(u, v)
                else:
                    raise InvalidParameterError(f"unknown update op {op!r}")
            return
        from repro.dynamic.workload import iter_batches

        for chunk in iter_batches(updates, batch_size):
            self.apply_batch(chunk)

    def apply_batch(self, updates: Iterable[tuple[str, int, int]]) -> UpdateBatch:
        """Apply a whole update stream with one deferred repair pass.

        The stream is first coalesced to its net structural effect
        (:meth:`UpdateBatch.plan`), then all graph changes land at once,
        and the solution/index are repaired in one sweep instead of once
        per edge:

        1. purge candidates containing a deleted edge (inverted index);
        2. drop solution cliques broken by deletions, freeing their
           nodes;
        3. one candidate-index pass over the batch's whole dirty region
           (:meth:`CandidateIndex.refresh_nodes`): the freed nodes, whose
           status changed, and each net inserted edge with a free
           endpoint (only cliques through a new edge can be new). The
           region is enumerated once, by the engine its size picks (see
           :mod:`repro.dynamic.index`), and cliques through a freed node
           are classified before the rest;
        4. one absorb pass over discovered all-free cliques and one swap
           cascade over the owners that gained candidates, then the
           maximality sweep over every owner whose candidate set changed
           and still holds >= 2 candidates.

        All Section V invariants (validity, maximality, exact index)
        hold on return, exactly as after a per-edge stream. Returns the
        planned batch (net inserts/deletes and coalesced-op count).
        Planning checks every update once; the net edges then land
        without a second check.

        Correctness of the single repair pass: every clique whose index
        status can change either contains a deleted edge (purged in
        step 1), touches a freed node (refreshed in step 3), or is a
        brand-new clique through an inserted edge (discovered in
        step 3). Inserted edges between two covered nodes cannot appear
        in a candidate or all-free clique — their endpoints belong to
        distinct owners, since same-owner endpoints would already be
        adjacent — so skipping their discovery is exact.
        """
        batch = UpdateBatch.plan(updates, self.graph)
        self.stats["batches"] += 1
        self.stats["coalesced_updates"] += batch.nops
        if batch.is_noop:
            # No structural change, but still drain the sweep frontier:
            # an empty batch doubles as an explicit stabilisation point
            # (e.g. right after construction, to harvest latent swap
            # opportunities of the initial static solve).
            self._sweep_touched_owners()
            return batch

        # 1. Structural changes, all up front (nets touch distinct edges,
        # already checked by the plan).
        self.graph._apply_net(batch.deletes, batch.inserts)
        self.stats["insertions"] += len(batch.inserts)
        self.stats["deletions"] += len(batch.deletes)

        # 2. Candidate purge + broken solution cliques.
        destroyed: set[int] = set()
        for u, v in batch.deletes:
            self.index.remove_candidates_with_edge(u, v)
            owner_u = self.index.owner_of.get(u)
            if owner_u is not None and owner_u == self.index.owner_of.get(v):
                destroyed.add(owner_u)
        freed: set[int] = set()
        for owner in destroyed:
            freed |= self.index.remove_solution_clique(owner)
            self.stats["destroyed_cliques"] += 1

        # 3. One deferred repair over the batch's dirty region: the
        # freed nodes and every effective insertion with a free endpoint.
        eligible = [
            (u, v)
            for u, v in batch.inserts
            if self.index.is_free(u) or self.index.is_free(v)
        ]
        report = self.index.refresh_nodes(freed, eligible)

        # 4. One absorb pass and one swap cascade. The explicit queue
        # (owners that gained candidates, in canonical report order,
        # then freshly absorbed owners) overlaps the touched-owner
        # sweep below, but the overlap is kept deliberately: cascading
        # from the gaining owners first is measurably faster than a
        # sorted-order sweep alone, and a re-examined unchanged owner
        # costs one failed select_disjoint.
        new_owners = self._absorb_all_free(report.all_free)
        queue: deque[int] = deque(
            owner for owner in report.new_by_owner if owner in self.index.solution
        )
        for owner in new_owners:
            if owner not in queue:
                queue.append(owner)
        try_swap(self.index, queue, self.stats)

        # 5. Maximality sweep over the rest of the touched frontier.
        self._sweep_touched_owners()
        return batch

    def _sweep_touched_owners(self) -> None:
        """Swap-sweep owners whose candidate sets changed since last sweep.

        Per-edge application sees intermediate candidate sets batching
        never materialises, so swap opportunities can survive in owners
        that gained nothing *new* this batch. Sweeping every owner the
        index marked touched (an untouched candidate set cannot have
        gained an opportunity, and losses never create one) harvests
        those without rescanning the whole solution. The first sweep
        pays for the latent opportunities of the initial static solve;
        later sweeps are incremental.
        """
        sweep: deque[int] = deque(
            owner
            for owner in sorted(self.index.touched_owners)
            if owner in self.index.solution
            and len(self.index.cands_by_owner.get(owner, ())) >= 2
        )
        self.index.touched_owners.clear()
        try_swap(self.index, sweep, self.stats)
        self.index.touched_owners.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _absorb_all_free(self, all_free: set[Clique]) -> list[int]:
        """Greedily add disjoint all-free cliques to ``S`` (keeps S maximal).

        ``all_free`` must hold every all-free clique of the graph, as the
        reports of the update handlers do: ``S`` was maximal before the
        update, so an all-free clique contains a freed node or an
        inserted edge between free nodes. Absorption makes nodes
        non-free, which cuts both ways in the index — candidates that
        used those nodes as free members die (dropped via the inverted
        node index, no enumeration), and the just-added owners gain
        candidates. Those were all-free cliques a moment before, hence
        members of ``all_free``, so reclassifying the cliques of
        ``all_free`` registers them without any enumeration. Existing
        owners can only *lose* candidates and no new all-free clique can
        appear; any clique of ``all_free`` that is still all-free goes
        to the next round.
        """
        new_owners: list[int] = []
        # Tie-free key (distinct cliques, distinct sorted node lists):
        # a hash-independent order.
        pending = sorted(all_free, key=sorted)  # repro-lint: ignore=iterorder
        while pending:
            chosen = select_disjoint(pending, self.k)
            added: list[int] = []
            covered: set[int] = set()
            for clique in chosen:
                # Re-validate: earlier additions may have consumed nodes.
                if any(not self.index.is_free(w) for w in clique):
                    continue
                if not self.graph.is_clique(clique):
                    continue
                added.append(self.index.add_solution_clique(clique))
                self.stats["direct_additions"] += 1
                covered |= clique
            if not added:
                break
            doomed: set[Clique] = set()
            for node in covered:
                doomed |= self.index.cands_by_node.get(node, set())
            for cand in doomed:
                self.index.remove_candidate(cand)
            still_free: list[Clique] = []
            for clique in pending:
                kind, owner = self.index.classify(clique)
                if kind == "candidate":
                    self.index.add_candidate(clique, owner)
                elif kind == "all_free":
                    still_free.append(clique)
            pending = still_free
            new_owners.extend(added)
        return new_owners

    # ------------------------------------------------------------------
    # Validation (test hook)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise unless solution validity/maximality and index exactness hold."""
        from repro.core.result import is_maximal, verify_solution

        verify_solution(self.graph, self.k, self.index.solution.values())
        self.index.check_consistency()
        if not is_maximal(self.graph, self.k, self.index.solution.values()):
            raise AssertionError("maintained solution is not maximal")
