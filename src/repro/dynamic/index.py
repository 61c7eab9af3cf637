"""Candidate-clique index (Section V-B, Algorithm 5).

A *free* node is one not covered by the solution ``S``. A *candidate*
k-clique mixes at least one free node with at least one non-free node,
and all its non-free nodes belong to the **same** clique of ``S`` (its
*owner*) — the only shape a profitable swap can use. The index maintains
exactly the set of all candidate cliques of the current graph, grouped by
owner, with a per-node inverted index for O(1)-amortised invalidation.

The full-build entry point (:meth:`CandidateIndex.build`) is the paper's
Algorithm 5, which enumerates k-cliques inside ``C ∪ N_F(C)`` (an owner
clique's nodes plus their free neighbours) for each owner ``C``, run as
one frontier pass over the whole graph with owner labels; it doubles as
the maximality check of the initial solution. Incremental maintenance
goes through :meth:`~CandidateIndex.refresh_nodes` (status changes,
plus the edges a batch inserted),
:meth:`~CandidateIndex.discover_through_edge` (one fresh edge) and
:meth:`~CandidateIndex.remove_candidates_with_edge` (structural edge
deletions). Owners that enter ``S`` later get their
candidates by reclassifying cliques already found, with
:meth:`~CandidateIndex.classify`: an owner absorbed after an update
from the update's all-free cliques, a swap's replacement owners from
the popped owner's candidates (see
:meth:`repro.dynamic.maintainer.DynamicDisjointCliques._absorb_all_free`
and :func:`repro.dynamic.swap.try_swap`). Both rest on ``S`` being
maximal before the change, so each region is enumerated once.

Re-enumeration has two engines, and each wins on some inputs: the
per-node and per-edge set recursions of :mod:`repro.dynamic.local`, and
the CSR frontier engine run once over a relabelled patch of the whole
region (:func:`repro.cliques.csr_kernels.iter_cliques_within_csr`),
whose rows are gathered from the graph's CSR mirror
(:meth:`repro.graph.dynamic.DynamicGraph.csr`). One rule picks between
them, from the region alone: a refresh takes the patch when its dirty
nodes and fresh edges number at least :data:`AUTO_DIRTY_THRESHOLD`
together and the patch spans at least :data:`PATCH_EDGE_THRESHOLD`
edges. Every other pass takes the set recursion. Both engines give the
same reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import SolutionError
from repro.cliques import csr_kernels
from repro.graph.csr import concat_rows, sorted_unique
from repro.graph.dag import OrientedCSR
from repro.graph.ordering import by_degeneracy
from repro.dynamic.local import (
    cliques_through_edge,
    cliques_through_node,
    iter_cliques_within,
)

if TYPE_CHECKING:  # imported for annotations only
    from repro.graph.dynamic import DynamicGraph

Clique = frozenset[int]

#: The least region (dirty nodes or inserted edges) and patch size (in
#: edges) for the CSR patch; below either, patch extraction costs more
#: than the frontier engine saves.
AUTO_DIRTY_THRESHOLD = 16
PATCH_EDGE_THRESHOLD = 512


def _wide_patch(graph: "DynamicGraph", patch: np.ndarray) -> bool:
    """Whether the patch on the nodes ``patch`` spans at least
    :data:`PATCH_EDGE_THRESHOLD` edges (half its degree sum, read from
    the graph's CSR mirror)."""
    indptr = graph.csr().indptr
    return int((indptr[patch + 1] - indptr[patch]).sum()) // 2 >= PATCH_EDGE_THRESHOLD


@dataclass
class RefreshReport:
    """Outcome of a :meth:`CandidateIndex.refresh_nodes` pass.

    Attributes
    ----------
    new_by_owner:
        Candidates that entered the index and were not present before the
        pass, grouped by owner id — the paper's trigger for re-queueing
        owners into TrySwap.
    all_free:
        k-cliques discovered whose nodes are *all* free. These are not
        candidates; the maintainer must absorb them into ``S`` to keep it
        maximal.
    """

    new_by_owner: dict[int, set[Clique]] = field(default_factory=dict)
    all_free: set[Clique] = field(default_factory=set)


class CandidateIndex:
    """Exact candidate-clique index over a dynamic graph.

    Parameters
    ----------
    graph:
        A :class:`repro.graph.dynamic.DynamicGraph` shared with the
        maintainer (the index never mutates it).
    k:
        Clique size.
    """

    def __init__(self, graph: "DynamicGraph", k: int) -> None:
        self.graph = graph
        self.k = k
        self.solution: dict[int, Clique] = {}
        self.owner_of: dict[int, int] = {}
        #: ``owner_of`` as an array over node ids, ``-1`` for a free node:
        #: the owner labels of the CSR frontier passes.
        self.labels = np.full(graph.n, -1, dtype=np.int64)
        self.cands_by_owner: dict[int, set[Clique]] = {}
        self.cands_by_node: dict[int, set[Clique]] = {}
        self.owner_of_cand: dict[Clique, int] = {}
        #: Owners whose candidate set changed since the consumer last
        #: cleared this (the batched maintainer's sweep frontier: an
        #: owner with an untouched candidate set cannot have gained a
        #: swap opportunity, so sweeps skip it).
        self.touched_owners: set[int] = set()
        self._next_owner = 0

    # ------------------------------------------------------------------
    # Solution bookkeeping
    # ------------------------------------------------------------------
    def is_free(self, u: int) -> bool:
        """Whether node ``u`` is uncovered by the solution."""
        return u not in self.owner_of

    def add_solution_clique(self, clique: Clique) -> int:
        """Register a clique of ``S``; returns its owner id."""
        clique = frozenset(clique)
        for u in clique:
            if u in self.owner_of:
                raise SolutionError(
                    f"node {u} already belongs to solution clique "
                    f"{sorted(self.solution[self.owner_of[u]])}"
                )
        owner = self._next_owner
        self._next_owner += 1
        self.solution[owner] = clique
        for u in clique:
            self.owner_of[u] = owner
            self.labels[u] = owner
        self.cands_by_owner[owner] = set()
        return owner

    def remove_solution_clique(self, owner: int) -> Clique:
        """Drop an owner from ``S``; its nodes become free.

        The owner's candidate entries are removed; the caller is expected
        to run :meth:`refresh_nodes` on the freed nodes afterwards.
        """
        clique = self.solution.pop(owner)
        for u in clique:
            del self.owner_of[u]
            self.labels[u] = -1
        for cand in list(self.cands_by_owner.pop(owner, ())):
            self._detach(cand)
        # Keep the sweep frontier bounded by live owners: a departed
        # owner can never be swept again (ids are never reused).
        self.touched_owners.discard(owner)
        return clique

    def add_free_node(self) -> None:
        """Label the node just appended to the graph as free."""
        self.labels = np.append(self.labels, -1)

    # ------------------------------------------------------------------
    # Candidate bookkeeping
    # ------------------------------------------------------------------
    def classify(self, clique: Clique) -> tuple[str, int | None]:
        """Classify a k-clique: ``("candidate", owner)``, ``("all_free",
        None)`` or ``("invalid", None)``."""
        owners = {self.owner_of[u] for u in clique if u in self.owner_of}
        if not owners:
            return ("all_free", None)
        if len(owners) == 1 and any(u not in self.owner_of for u in clique):
            # Singleton set: pop() is deterministic by the guard above.
            return ("candidate", owners.pop())  # repro-lint: ignore=iterorder
        return ("invalid", None)

    def add_candidate(self, clique: Clique, owner: int) -> bool:
        """Insert a candidate; returns ``False`` if already present."""
        if clique in self.owner_of_cand:
            return False
        self.owner_of_cand[clique] = owner
        self.cands_by_owner.setdefault(owner, set()).add(clique)
        self.touched_owners.add(owner)
        for u in clique:
            self.cands_by_node.setdefault(u, set()).add(clique)
        return True

    def _detach(self, cand: Clique) -> None:
        """Remove a candidate from the node index and the global map."""
        self.owner_of_cand.pop(cand, None)
        for u in cand:
            bucket = self.cands_by_node.get(u)
            if bucket is not None:
                bucket.discard(cand)
                if not bucket:
                    del self.cands_by_node[u]

    def remove_candidate(self, cand: Clique) -> None:
        """Remove a candidate from all structures."""
        owner = self.owner_of_cand.get(cand)
        if owner is not None:
            self.cands_by_owner.get(owner, set()).discard(cand)
            self.touched_owners.add(owner)
        self._detach(cand)

    def candidates_of(self, owner: int) -> set[Clique]:
        """Live view of an owner's candidate set."""
        return self.cands_by_owner.get(owner, set())

    @property
    def num_candidates(self) -> int:
        """Total candidate cliques (the paper's "index size", Table VII)."""
        return len(self.owner_of_cand)

    def remove_candidates_with_edge(self, u: int, v: int) -> set[Clique]:
        """Drop every candidate containing both endpoints (edge deleted)."""
        doomed = self.cands_by_node.get(u, set()) & self.cands_by_node.get(v, set())
        doomed = set(doomed)
        for cand in doomed:
            self.remove_candidate(cand)
        return doomed

    # ------------------------------------------------------------------
    # Construction and refresh
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Algorithm 5: construct all candidates from scratch.

        One frontier pass over the whole graph, oriented by degeneracy
        rank as the static passes orient, with :attr:`labels` pruning
        every branch that mixes two owners. It yields each owner's own
        clique, every candidate (the cliques of each ``C ∪ N_F(C)`` but
        ``C``) and every all-free clique. Candidates are registered in
        sorted order, as :meth:`refresh_nodes` registers. An all-free
        clique means ``S`` is not maximal and raises
        :class:`SolutionError`.
        """
        graph, k, labels = self.graph, self.k, self.labels
        ocsr = OrientedCSR.from_rank(graph, by_degeneracy(graph))
        found: list[np.ndarray] = []
        for members in csr_kernels.clique_matrices_csr(ocsr, k, labels=labels):
            free = (labels[members] == -1).sum(axis=1)
            if (free == k).any():
                raise SolutionError(
                    "solution is not maximal: free k-clique "
                    f"{sorted(members[free == k][0].tolist())}"
                )
            # Rows without a free member are the owners' own cliques.
            found.append(members[free > 0])
        if not found:
            return
        rows = np.sort(np.concatenate(found), axis=1, kind="stable")
        cands = rows[np.lexsort(rows.T[::-1])]  # sorted(cliques, key=sorted)
        owners = labels[cands].max(axis=1)
        for cand, owner in zip(cands.tolist(), owners.tolist()):
            self.add_candidate(frozenset(cand), owner)

    def refresh_nodes(
        self, dirty: Iterable[int], edges: Iterable[tuple[int, int]] = ()
    ) -> RefreshReport:
        """Re-derive all candidates touching ``dirty`` nodes or fresh ``edges``.

        Call after the free status of ``dirty`` changed (solution cliques
        added/removed) or after local structure changed around them.
        ``edges`` are edges inserted since the index was last exact,
        each with a free endpoint: an edge between two covered nodes
        lies in no candidate or all-free clique, and any other new
        clique runs through a fresh edge. Any candidate whose validity
        could have changed contains a dirty node, so removing those and
        classifying every clique through a dirty node or a fresh edge
        restores exactness. The whole region is enumerated once, by
        either engine (see the module docstring); the report is the
        same.

        Cliques through a dirty node are classified first, then the
        rest, each in sorted order. Discovery order differs between the
        two engines, and it leaks into the owner queue (dict insertion
        order), hence into downstream swap trajectories; the canonical
        order makes the pass engine-invariant.
        """
        dirty = set(dirty)
        report = RefreshReport()
        doomed: set[Clique] = set()
        for node in dirty:
            doomed |= self.cands_by_node.get(node, set())
        for cand in doomed:
            self.remove_candidate(cand)

        # Distinct cliques have distinct sorted node lists, so the key is
        # tie-free and the order hash-independent.
        for clique in sorted(
            self._region_cliques(dirty, list(edges)),
            key=lambda c: (dirty.isdisjoint(c), sorted(c)),
        ):
            kind, owner = self.classify(clique)
            if kind == "candidate":
                if self.add_candidate(clique, owner) and clique not in doomed:
                    report.new_by_owner.setdefault(owner, set()).add(clique)
            elif kind == "all_free":
                report.all_free.add(clique)
        return report

    def _region_cliques(
        self, dirty: set[int], edges: list[tuple[int, int]]
    ) -> Iterable[Clique]:
        """Every *classifiable* k-clique through a dirty node or a fresh edge.

        The set recursion unions per-node and per-edge enumerations and
        leaves discarding owner-mixing cliques to ``classify``. The CSR
        patch enumerates the region in one frontier pass: the dirty
        nodes with their neighbours (a clique through a dirty node lies
        in its closed neighbourhood) and, for each fresh edge ``(u, v)``
        with at least ``k - 2`` common neighbours, ``{u, v} ∪ (N(u) ∩
        N(v))`` (every clique through the edge lies there). It keeps the
        cliques through a dirty node or such an endpoint (``require``)
        whose covered members share one owner (``labels``, pruned inside
        the frontier). The patch may also surface cliques through an
        endpoint but through no dirty node or fresh edge. Those existed,
        with the same free status, when the index was last exact, so
        classifying them changes nothing: the index holds the candidates
        among them, and none is all-free because ``S`` was maximal.
        """
        graph, k = self.graph, self.k
        if len(dirty) + len(edges) >= AUTO_DIRTY_THRESHOLD:
            touch = set(dirty)
            around: set[int] = set()
            for u, v in edges:
                common = graph.neighbors(u) & graph.neighbors(v)
                if len(common) >= k - 2:
                    touch.add(u)
                    touch.add(v)
                    around |= common
            csr = graph.csr()
            seeds = np.fromiter(dirty, dtype=np.int64, count=len(dirty))
            _, nbrs = concat_rows(csr.indptr, csr.cols, seeds)
            pool = sorted_unique(
                np.concatenate((np.fromiter(touch | around, dtype=np.int64), nbrs))
            )
            if touch and _wide_patch(graph, pool):
                return csr_kernels.iter_cliques_within_csr(
                    graph, pool, k, require=touch, labels=self.labels
                )
        cliques: set[Clique] = set()
        for node in dirty:
            cliques.update(cliques_through_node(graph, node, k))
        for u, v in edges:
            cliques.update(cliques_through_edge(graph, u, v, k))
        return cliques

    def discover_through_edge(self, u: int, v: int) -> RefreshReport:
        """Classify every k-clique through edge ``(u, v)`` (fresh insert).

        Only cliques containing the new edge can be new, so this is the
        complete discovery step for Algorithm 6.
        """
        report = RefreshReport()
        for clique in cliques_through_edge(self.graph, u, v, self.k):
            self._classify_into(clique, report)
        return report

    def _classify_into(self, clique: Clique, report: RefreshReport) -> None:
        """Classify a discovered clique and fold it into ``report``."""
        kind, owner = self.classify(clique)
        if kind == "candidate":
            if self.add_candidate(clique, owner):
                report.new_by_owner.setdefault(owner, set()).add(clique)
        elif kind == "all_free":
            report.all_free.add(clique)

    # ------------------------------------------------------------------
    # Validation (test hook)
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Raise :class:`SolutionError` on any internal inconsistency.

        Recomputes the candidate universe from scratch (Algorithm 5
        semantics over the whole graph) and compares. Exponential-ish;
        tests only.
        """
        for owner, clique in self.solution.items():
            if not self.graph.is_clique(clique):
                raise SolutionError(f"solution clique {sorted(clique)} is broken")
            for u in clique:
                if self.owner_of.get(u) != owner:
                    raise SolutionError(f"owner map wrong for node {u}")
        labels = np.full(self.graph.n, -1, dtype=np.int64)
        for u, owner in self.owner_of.items():
            if u not in self.solution[owner]:
                raise SolutionError(f"node {u} mapped to wrong owner {owner}")
            labels[u] = owner
        if not np.array_equal(self.labels, labels):
            raise SolutionError("owner labels differ from the owner map")

        expected: dict[Clique, int] = {}
        for owner, clique in self.solution.items():
            free_neighbours = {
                v
                for u in clique
                for v in self.graph.neighbors(u)
                if v not in self.owner_of
            }
            pool = set(clique) | free_neighbours
            for cand in iter_cliques_within(self.graph, pool, self.k):
                if cand == clique:
                    continue
                kind, cand_owner = self.classify(cand)
                if kind == "candidate" and cand_owner == owner:
                    expected[cand] = owner
        if expected.keys() != self.owner_of_cand.keys():
            missing = expected.keys() - self.owner_of_cand.keys()
            extra = self.owner_of_cand.keys() - expected.keys()
            raise SolutionError(
                f"candidate index drift: missing={sorted(map(sorted, missing))} "
                f"extra={sorted(map(sorted, extra))}"
            )
        for cand, owner in expected.items():
            if self.owner_of_cand[cand] != owner:
                raise SolutionError(
                    f"candidate {sorted(cand)} has owner "
                    f"{self.owner_of_cand[cand]}, expected {owner}"
                )
