"""Swap operations (Section V-A, Algorithm 4).

``try_swap`` pops solution cliques from a FIFO queue and, for each, looks
for a set of >= 2 pairwise-disjoint candidate cliques to replace it —
each swap grows ``|S|`` by at least one, so the loop terminates after at
most ``n/k`` swaps. Replacement sets are chosen exactly the way
Algorithm 2 chooses cliques globally: ascending clique score, where
scores are computed *locally* over the candidate set under inspection
(the paper runs "Algorithm 2 ... among C(C)").
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain
from typing import Collection

from repro.dynamic.index import CandidateIndex, Clique


def select_disjoint(cliques: Collection[Clique], k: int) -> list[Clique]:
    """Greedy maximal disjoint subset in ascending local-score order.

    ``s_n`` is recomputed inside the candidate pool (how many pool
    cliques contain each node); the greedy key is the package-wide
    ``(score, sorted nodes)`` order, so selection is deterministic. The
    pool is read several times and never copied. When the least-key
    clique meets every other clique, the greedy pass would take it and
    nothing else, so it is returned without sorting the pool.
    """
    if not cliques:
        return []
    counts = Counter(chain.from_iterable(cliques))

    def key(clique: Clique) -> tuple[int, list[int]]:
        return sum(map(counts.__getitem__, clique)), sorted(clique)

    least = min(cliques, key=key)
    if all(not least.isdisjoint(clique) for clique in cliques):
        return [least]
    used: set[int] = set()
    chosen: list[Clique] = []
    for clique in sorted(cliques, key=key):
        if used.isdisjoint(clique):
            chosen.append(clique)
            used |= clique
    return chosen


def try_swap(
    index: CandidateIndex,
    queue: deque[int],
    stats: dict[str, float] | None = None,
) -> list[int]:
    """Run Algorithm 4 until the owner queue drains.

    Parameters
    ----------
    index:
        The candidate index (shared with the maintainer; mutated).
    queue:
        FIFO of owner ids eligible for swapping. Owners that left the
        solution in the meantime are skipped.
    stats:
        Optional counter dict (``swaps``, ``swap_gain``, ``pops``).

    Returns
    -------
    list[int]
        Owner ids newly added to the solution by swaps (useful for
        callers that track which cliques changed).
    """
    if stats is None:
        stats = {}
    stats.setdefault("pops", 0)
    stats.setdefault("swaps", 0)
    stats.setdefault("swap_gain", 0)
    created: list[int] = []

    while queue:
        owner = queue.popleft()
        if owner not in index.solution:
            continue
        stats["pops"] += 1
        candidates = index.candidates_of(owner)
        # Candidates that all share a node overlap pairwise, so the
        # greedy would keep one of them: no swap, and no scoring needed.
        # (An intersection does not depend on its operands' order.)
        if len(candidates) < 2 or frozenset.intersection(*candidates):  # repro-lint: ignore=iterorder
            continue
        replacement = select_disjoint(candidates, index.k)
        if len(replacement) <= 1:
            continue

        # Perform the swap: C out, replacement in. C's candidates are
        # kept: they hold every candidate the replacement owners get.
        # Distinct cliques have distinct sorted node lists, so the key is
        # tie-free and the order hash-independent.
        held = sorted(candidates, key=sorted)  # repro-lint: ignore=iterorder
        removed = index.remove_solution_clique(owner)
        covered: set[int] = set()
        new_ids: list[int] = []
        for clique in replacement:
            new_ids.append(index.add_solution_clique(clique))
            covered |= clique
        stats["swaps"] += 1
        stats["swap_gain"] += len(replacement) - 1

        # Repair the index around the swap in three targeted moves
        # (together equivalent to a full refresh of removed ∪ covered):
        # candidates using newly covered free nodes die via the node
        # index; nodes of C left uncovered get a through-node refresh
        # (they may now seed candidates of *other* owners); and each
        # replacement owner's own candidates are C's former candidates,
        # reclassified. That last move needs no enumeration: a candidate
        # Q of a replacement R lies in C ∪ (nodes free before the swap),
        # as R and the free nodes around it do. Q meets C (else it was
        # all-free before the swap, breaking maximality) and Q ≠ C (C
        # meets at least two replacement cliques), so Q was a candidate
        # of C.
        doomed = set()
        for node in covered:
            doomed |= index.cands_by_node.get(node, set())
        for cand in doomed:
            index.remove_candidate(cand)

        gained: list[int] = []
        freed = set(removed) - covered
        if freed:
            report = index.refresh_nodes(freed)
            # A maximal replacement leaves no all-free clique behind: any
            # such clique would have been a candidate of the removed owner
            # disjoint from everything chosen, contradicting greedy
            # maximality.
            if report.all_free:
                raise AssertionError(
                    f"swap left uncovered free cliques: "
                    f"{sorted(map(sorted, report.all_free))}"
                )
            gained.extend(report.new_by_owner)
        registered: set[int] = set()
        for cand in held:
            kind, cand_owner = index.classify(cand)
            if kind == "all_free":
                raise AssertionError(f"swap left uncovered free clique {sorted(cand)}")
            if kind == "candidate" and index.add_candidate(cand, cand_owner):
                registered.add(cand_owner)
        gained.extend(new_id for new_id in new_ids if new_id in registered)
        for gained_owner in gained:
            if gained_owner in index.solution and gained_owner not in queue:
                queue.append(gained_owner)
        created.extend(new_ids)
    return created
