"""Algorithm 3 — the lightweight implementation (paper tags ``L``/``LP``).

Produces the same solution as Algorithm 2 (Theorem 4) with ``O(n + m)``
space:

1. Compute node scores during one clique enumeration (no storage).
2. Orient the graph by ascending node score (ties by id).
3. HeapInit: for each DAG root ``u``, find the *minimum-key* k-clique
   inside its out-neighbourhood (procedure ``FindMin``) and push it
   into a heap. FindMin's domain is the *scored subgraph*: a node of
   score 0 lies in no k-clique, so no arc touches one.
4. Repeatedly pop the globally minimal clique. If all its nodes are
   still valid it joins the solution and its nodes are removed; if it is
   stale but its root survives, the root's local minimum is recomputed
   over the remaining valid nodes and re-pushed.

``LP`` additionally prunes ``FindMin`` branches whose partial score plus
the next node's score already reaches the best key's score — safe because
every node in a k-clique has score >= 1, so completing any pruned branch
strictly exceeds the current minimum (it can't even tie, hence the exact
Theorem 4 equality is preserved; see ``tests/test_theorem4.py``).

The heap key is the package-wide deterministic clique key
``(clique score, sorted node tuple)``.

FindMin is a bit-parallel walk over the score-oriented CSR
(:class:`ScoreOrientedCSR`, built once per ``k`` and shared read-only):
bit ``j`` of every mask of root ``r`` stands for the ``j``-th node of
``r``'s id-sorted out-row, each arc ``(r, u)`` carries the mask of
``out(u)`` within that row, and narrowing a candidate set is one
Python-int ``&``. An engine owns only a validity list: a search reads
its root's live candidates from the flags of the root's row. A mask is
as wide as its row, so only rows of at most :data:`ROW_CAP` nodes get
masks; that keeps them within ``O(n + m)`` space. A longer row (a
hub's) is walked as an id-sorted candidate list, and each of its
candidates re-bases the walk into its own, shorter row.
Either way candidates are visited in ascending id with the same prune
points as a walk over the scored subgraph's live out-neighbour sets, so
the solution *and* the counters are those of that set walk (kept as the
reference in ``tests/test_findmin_reference.py``): ``findmin_calls``
counts searches (HeapInit roots with ``k - 1`` or more out-neighbours,
drain re-searches), ``branches_pruned`` the ``lp`` walk's cut candidates.
Neither the score pass nor FindMin reads the per-node sets of
:attr:`OrientedGraph.out <repro.graph.dag.OrientedGraph.out>`, which
are built lazily, so only ``hg`` pays for them.

The paper runs HeapInit "for each node u in parallel"; here it is
data-parallel. :class:`ScoreOrientedCSR` runs it once per ``k`` for
every root at once, as a level-synchronous numpy pass over the
score-oriented CSR (:func:`_bulk_batch`, in root batches). The pass
also replays the walk's prune points, so its ``findmin_calls`` and
``branches_pruned`` are those of one FindMin per searched root. A root
with more than :data:`WEDGE_CAP` first-level wedges is walked with
FindMin instead, since the pass lists whole search trees and the walk
skips pruned subtrees. Its first-level wedge hits are the arc masks' bits,
so the masks are packed from them (:class:`_ArcMasks`). The engine's
``"init"`` phase is then one tick that copies the cached entries; after
a warm start or a restored mid-init checkpoint it reruns the pass over
the residual graph.
"""

from __future__ import annotations

import heapq
import sys
from itertools import compress
from typing import Iterable

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.dag import OrientedCSR
from repro.graph.graph import Graph
from repro.graph.ordering import OrderSpec, by_score
from repro.cliques.counting import node_scores
from repro.cliques.csr_kernels import (
    _EMPTY,
    _Level,
    _level_hits,
    _root_batches,
    _root_level,
)
from repro.core.result import (
    CliqueSetResult,
    checked_clique,
    checked_solution,
    is_int,
    is_seedable_clique,
)
from repro.core.scores import CliqueKey

_INF_KEY: CliqueKey = (np.iinfo(np.int64).max, ())

#: Engine phases in run order; :meth:`LightweightEngine.load_state`
#: rejects any other value.
_PHASES = ("init", "drain", "done")

#: Longest out-row that gets arc masks. A mask takes up to
#: ``24 + 4 * ceil(ROW_CAP / 30)`` bytes (164 here), so masks stay within
#: ``O(n + m)`` space; longer rows are walked as candidate lists.
ROW_CAP = 1024

#: Longest first-level wedge count (``Σ outdeg(u)`` over a root's
#: out-row) that HeapInit's bulk pass takes on. The bulk pass lists a
#: root's whole search tree, while the walk skips pruned subtrees, so a
#: root with more wedges is walked with FindMin instead.
WEDGE_CAP = 4096

#: A heap entry: ``(clique key, root, sorted clique)``.
_Entry = tuple[CliqueKey, int, tuple[int, ...]]


def _earlier_sibling_min(values: np.ndarray, owner: np.ndarray, cap: int) -> np.ndarray:
    """Per position, the least of ``values`` over the earlier positions
    of the same context (``owner`` ascending), clipped to ``cap``;
    ``cap`` at a context's first position.

    One running minimum over every position: each context's values
    are lifted above all of the next context's, so no context sees its
    predecessors. Values that would overflow int64 once lifted are
    ranked first.
    """
    if not len(values):
        return values
    values = np.minimum(values, cap)
    low = int(values.min())
    span = cap - low + 1
    nctx = int(owner[-1]) + 1
    if (nctx + 1) * span >= 1 << 63:
        ranked = np.unique(np.r_[values, cap])
        rank = np.searchsorted(ranked, values)
        return ranked[_earlier_sibling_min(rank, owner, len(ranked) - 1)]
    lift = (nctx - owner) * span - low
    run = np.minimum.accumulate(values + lift)
    out = np.full(len(values), cap, dtype=np.int64)
    out[1:] = np.minimum(run[:-1] - lift[1:], cap)
    return out


def _bulk_batch(
    ocsr: OrientedCSR,
    scores: np.ndarray,
    k: int,
    roots: np.ndarray,
    masks: "_ArcMasks | None" = None,
) -> tuple[list[_Entry], int]:
    """HeapInit for one batch of ascending searchable roots, all at once.

    Lists each root's FindMin search tree level by level: a depth-``d``
    node is a candidate position of the depth ``d - 1`` frontier, and
    its partial clique scores ``S`` (the prefix sum). Returns the
    entries (each root's minimum ``(Σ scores, sorted clique)``, in root
    order) and the number of nodes the pruning walk cuts. Node ``x`` is
    cut iff it is reached and ``S(x) >= B(x)``, ``B(x)`` being the
    least total of the root's cliques before ``x`` in the walk's order
    (ids ascending at each level): every node of a k-clique scores
    ``>= 1``, so a cut subtree holds only strictly worse cliques and
    never lowers that running best. Three passes compute it: subtree
    minima bottom-up, then ``B`` and "reached" top-down; a node's
    children are reached iff it is reached, not cut and has at least
    as many candidates as the walk needs to recurse.

    With ``masks``, the depth-1 hits of the roots that have an entry
    are packed into it once the batch is done.
    """
    n = ocsr.n
    level = _root_level(ocsr, roots)
    top: tuple[_Level, np.ndarray, np.ndarray, np.ndarray] | None = None
    ctx_sum = scores[roots]
    ctx_root = np.arange(len(roots), dtype=np.int64)
    # Per depth 1..k-2: (candidates, owner, prefix sums, spawned).
    tiers: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    if k == 2:
        leaf_root = np.repeat(ctx_root, np.diff(level[0]))
        leaf_pos, leaf_w = np.arange(len(leaf_root), dtype=np.int64), level[1]
        leaf_total = ctx_sum[leaf_root] + scores[leaf_w]
    for depth in range(1, k - 1):
        pos, w, ok, owner = _level_hits(level, ocsr, n)
        sums = ctx_sum[owner] + scores[level[1]]
        hit, w = pos[ok], w[ok]
        if depth == 1 and masks is not None:
            top = level, owner, hit, w
        if depth == k - 2:
            tiers.append((level[1], owner, sums, _EMPTY))
            leaf_pos, leaf_w = hit, w
            leaf_total = sums[hit] + scores[w]
            leaf_root = ctx_root[owner[hit]]
            break
        counts = np.bincount(hit, minlength=len(level[1]))
        keep = counts >= k - 1 - depth
        spawned = np.flatnonzero(keep)
        tiers.append((level[1], owner, sums, spawned))
        if not len(spawned):
            leaf_pos = leaf_w = leaf_total = leaf_root = _EMPTY
            break
        indptr = np.zeros(len(spawned) + 1, dtype=np.int64)
        np.cumsum(counts[spawned], out=indptr[1:])
        level = (indptr, w[keep[hit]], level[1][spawned], owner[spawned])
        ctx_sum, ctx_root = sums[spawned], ctx_root[owner[spawned]]
    root_min = np.full(len(roots), _INF_KEY[0], dtype=np.int64)
    np.minimum.at(root_min, leaf_root, leaf_total)
    pruned = _pruned_nodes(tiers, leaf_pos, leaf_total, len(roots))
    # Each root's entry: its least sorted clique among the leaves at
    # its least total.
    tied = np.flatnonzero(leaf_total == root_min[leaf_root])
    members = np.empty((len(tied), k), dtype=np.int64)
    members[:, -1] = leaf_w[tied]
    at = leaf_pos[tied]
    if k == 2:
        members[:, 0] = roots[leaf_root[tied]]
    for depth in range(len(tiers), 0, -1):
        cand, owner, _, _ = tiers[depth - 1]
        members[:, depth] = cand[at]
        ctx = owner[at]
        if depth > 1:
            at = tiers[depth - 2][3][ctx]
        else:
            members[:, 0] = roots[ctx]
    members.sort(axis=1)
    tied_root = leaf_root[tied]
    order = np.lexsort((*members.T[::-1], tied_root))
    first = order[np.r_[True, np.diff(tied_root[order]) != 0]] if len(order) else order
    if top is not None and masks is not None:
        level, owner, hit, w = top
        keep = (root_min < _INF_KEY[0])[owner[hit]]
        masks.add(level, owner, hit[keep], w[keep])
    entries: list[_Entry] = []
    for total, root, row in zip(
        root_min[tied_root[first]].tolist(),
        roots[tied_root[first]].tolist(),
        members[first].tolist(),
    ):
        clique = tuple(row)
        entries.append(((total, clique), root, clique))
    return entries, pruned


def _pruned_nodes(
    tiers: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    leaf_pos: np.ndarray,
    leaf_total: np.ndarray,
    nroots: int,
) -> int:
    """The cut count of :func:`_bulk_batch`'s search trees."""
    if not tiers:
        return 0
    cap = max(int(sums.max(initial=0)) for _, _, sums, _ in tiers) + 1
    # Subtree minima, bottom-up (clipped to ``cap``: no node reaches it).
    least = [np.empty(0, dtype=np.int64)] * len(tiers)
    below = np.full(len(tiers[-1][0]), cap, dtype=np.int64)
    np.minimum.at(below, leaf_pos, np.minimum(leaf_total, cap))
    least[-1] = below
    for depth in range(len(tiers) - 1, 0, -1):
        owner, spawned = tiers[depth][1], tiers[depth - 1][3]
        ctx_least = np.full(len(spawned), cap, dtype=np.int64)
        np.minimum.at(ctx_least, owner, least[depth])
        above = np.full(len(tiers[depth - 1][0]), cap, dtype=np.int64)
        above[spawned] = ctx_least
        least[depth - 1] = above
    # B and "reached", top-down.
    ctx_best = np.full(nroots, cap, dtype=np.int64)
    ctx_reached = np.ones(nroots, dtype=bool)
    pruned = 0
    for (_, owner, sums, spawned), subtree in zip(tiers, least):
        best = np.minimum(ctx_best[owner], _earlier_sibling_min(subtree, owner, cap))
        reached = ctx_reached[owner]
        cut = reached & (sums >= best)
        pruned += int(np.count_nonzero(cut))
        ctx_best, ctx_reached = best[spawned], (reached & ~cut)[spawned]
    return pruned


class _ArcMasks:
    """Arc masks packed from first-level wedge hits, 64 bits a word.

    A hit of a root-level frontier is a wedge ``r -> u -> w`` whose
    ``w`` lies in ``r``'s row too: it sets bit ``j`` of the mask of arc
    ``(r, u)``, ``w`` being ``row(r)[j]``. Only the rows flagged in
    ``rows`` are packed, each by one :meth:`add`.
    """

    __slots__ = ("ocsr", "rows", "words", "high")

    def __init__(self, ocsr: OrientedCSR, rows: np.ndarray) -> None:
        self.ocsr = ocsr
        self.rows = rows
        self.words = np.zeros(len(ocsr.cols), dtype=np.uint64)
        self.high: list[tuple[int, int, int]] = []

    def add(
        self, level: _Level, owner: np.ndarray, hit: np.ndarray, w: np.ndarray
    ) -> None:
        """Pack the hits of the root-level frontier ``level`` (``owner``
        maps its candidates to their roots): the wedges through candidate
        position ``hit[i]`` to ``w[i]``, sorted by position, then ``w``.

        ``w``'s bit is its biased key's ``searchsorted`` position among
        the frontier's sorted biased candidates, less its root's start.
        Hits sorted by (arc, bit) make each 64-bit word one ``reduceat``.
        """
        n = self.ocsr.n
        ctx = owner[hit]
        keep = self.rows[level[2][ctx]]
        if not keep.any():
            return
        hit, w, ctx = hit[keep], w[keep], ctx[keep]
        start = level[0][ctx]
        bit = np.searchsorted(level[1] + n * owner, ctx * n + w) - start
        arc = self.ocsr.indptr[level[2][ctx]] + hit - start
        word = bit >> 6
        seg = np.flatnonzero(np.r_[True, (np.diff(arc) != 0) | (np.diff(word) != 0)])
        vals = np.bitwise_or.reduceat(
            np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64)), seg
        )
        first = word[seg] == 0
        self.words[arc[seg[first]]] = vals[first]
        if not first.all():
            rest = ~first
            self.high.extend(
                zip(arc[seg[rest]].tolist(), word[seg[rest]].tolist(), vals[rest].tolist())
            )

    def add_rows(self, k: int, roots: np.ndarray) -> None:
        """Pack every first-level hit of the ascending ``roots``' rows,
        one :func:`~repro.cliques.csr_kernels._level_hits` pass per root
        batch."""
        ocsr = self.ocsr
        for batch in _root_batches(ocsr, k, roots):
            level = _root_level(ocsr, batch)
            pos, w, ok, owner = _level_hits(level, ocsr, ocsr.n)
            self.add(level, owner, pos[ok], w[ok])

    def masks(self) -> list[int]:
        """One Python-int mask per arc (0 on rows never packed)."""
        masks = self.words.tolist()
        for a, word_index, value in self.high:
            masks[a] |= value << (64 * word_index)
        return masks


def _bulk_init(
    ocsr: OrientedCSR,
    scores: np.ndarray,
    k: int,
    roots: np.ndarray,
    masks: _ArcMasks | None = None,
) -> tuple[list[_Entry], int]:
    """:func:`_bulk_batch` over ``roots`` in batches sized by
    :data:`~repro.cliques.csr_kernels.ROOT_BATCH_BUDGET`."""
    entries: list[_Entry] = []
    pruned = 0
    for batch in _root_batches(ocsr, k, roots):
        found, cut = _bulk_batch(ocsr, scores, k, batch, masks)
        entries += found
        pruned += cut
    return entries, pruned


def _walk_entries(roots: np.ndarray, finder: "_FindMin", k: int) -> list[_Entry]:
    """The heap entries ``finder`` finds for ``roots``."""
    entries: list[_Entry] = []
    for root in roots.tolist():
        found = finder.search(root, k)
        if found is not None:
            entries.append((found[0], root, found[1]))
    return entries


def _by_root(bulk: list[_Entry], walked: list[_Entry]) -> list[_Entry]:
    """Two root-ordered entry lists merged in root order."""
    return sorted([*bulk, *walked], key=lambda entry: entry[1])


def _entry_bytes(entry: _Entry) -> int:
    """Measured size of a heap entry and everything it alone holds."""
    key, root, clique = entry
    return (
        sys.getsizeof(entry)
        + sys.getsizeof(key)
        + sys.getsizeof(key[0])
        + sys.getsizeof(root)
        + sys.getsizeof(clique)
        + sum(map(sys.getsizeof, clique))
    )


class ScoreOrientedCSR:
    """FindMin's shared substrate for one ``k`` (read-only once built).

    The ascending-score orientation (ties by id) of the scored subgraph
    (no arc touches a node of score 0, which is in no k-clique) as flat
    Python lists: arc ``a`` of root ``r`` runs from ``indptr[r]`` to
    ``indptr[r + 1]`` and ends at ``cols[a]``, ids ascending, and bit
    ``j`` of every mask of root ``r`` stands for arc ``indptr[r] + j``.
    A row is *short* if it holds at most ``row_cap`` nodes; only short
    rows have masks.

    The build also runs HeapInit on the whole graph, for every root at
    once (see :func:`_bulk_batch`): roots with more than
    :data:`WEDGE_CAP` first-level wedges are walked with FindMin
    instead. A root without a clique can never be searched again (the
    residual graph only shrinks), so masks go only to rows with an
    entry or a walk. The masks of rows with an entry are packed from
    the bulk pass's own first-level wedge hits; the other rows that
    need masks (walked roots and re-base targets) get one pass of
    their own.

    Attributes
    ----------
    k:
        The clique size the masks were built for.
    row_cap:
        The longest short row: :data:`ROW_CAP` when the substrate was
        built.
    indptr, cols:
        The oriented CSR rows of the scored subgraph.
    scores:
        The node scores.
    masks:
        Per arc ``(r, u)``, the mask of ``u``'s out-row within ``r``'s
        row: bit ``j`` is set iff ``u -> cols[indptr[r] + j]``. Built
        only for the short rows FindMin can walk with masks: those of
        roots with a HeapInit entry or walk and, for ``k > 3``, those
        such a long row re-bases into (its out-neighbours with
        out-degree ``>= 2``); none at ``k = 2`` (a one-level walk). 0
        elsewhere.
    bits:
        ``1 << j`` for each ``j`` below the longest masked row's
        length: FindMin ORs a row's candidate mask out of them with
        ``itertools.compress``.
    init_entries, init_calls, init_pruned:
        HeapInit on the whole graph: the heap entries ``(key, root,
        clique)`` in ascending root order, the ``findmin_calls`` it
        counts and the ``branches_pruned`` of the ``lp`` walk.
    """

    __slots__ = (
        "k", "row_cap", "indptr", "cols", "scores", "masks", "bits",
        "init_entries", "init_calls", "init_pruned", "_ocsr", "_scores",
        "_walked", "_bytes",
    )

    def __init__(self, graph: Graph, scores: np.ndarray, k: int) -> None:
        row_cap = ROW_CAP
        scores = np.asarray(scores, dtype=np.int64)
        # by_score ranks the z nodes of score 0 lowest: floored at z, the
        # orientation keeps only the scored subgraph.
        zero = int(np.count_nonzero(scores <= 0))
        ocsr = OrientedCSR.from_rank(graph, by_score(graph, scores), zero)
        n = graph.n
        deg = ocsr.out_degrees()
        tails = np.repeat(np.arange(n, dtype=np.int64), deg)
        long_rows = deg > row_cap
        short = ~long_rows & (k > 2)
        wedges = np.bincount(tails, weights=deg[ocsr.cols], minlength=n)
        self.k = k
        self.row_cap = row_cap
        self._ocsr = ocsr
        self._scores = scores
        self._walked = (wedges > WEDGE_CAP) & (k > 2)
        calls, bulk, walked = self._roots(ocsr, 0)
        masks = _ArcMasks(ocsr, short)
        entries, pruned = _bulk_init(ocsr, scores, k, bulk, masks)
        packed = np.zeros(n, dtype=bool)
        packed[[root for _, root, _ in entries]] = True
        searched = packed.copy()
        searched[walked] = True
        targets = np.zeros(n, dtype=bool)
        if k > 3:
            targets[ocsr.cols[(searched & long_rows)[tails]]] = True
        built = short & (searched | (targets & (deg >= 2)))
        masks.add_rows(k, np.flatnonzero(built & ~packed))
        self.indptr: list[int] = ocsr.indptr.tolist()
        self.cols: list[int] = ocsr.cols.tolist()
        self.scores: list[int] = scores.tolist()
        self.masks = masks.masks()
        self.bits = [1 << j for j in range(int(deg[short].max(initial=0)))]
        self._bytes: int | None = None
        stats: dict[str, float] = {"findmin_calls": 0, "branches_pruned": 0}
        finder = _FindMin(self, True, stats)
        self.init_entries = _by_root(entries, _walk_entries(walked, finder, k))
        self.init_calls = calls + int(stats["findmin_calls"])
        self.init_pruned = pruned + int(stats["branches_pruned"])

    def _roots(
        self, ocsr: OrientedCSR, start: int
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """HeapInit's roots ``start..n-1`` under ``ocsr``'s out-degrees:
        ``(FindMin calls but the walks', roots for the bulk pass, roots
        to walk)``."""
        called = np.flatnonzero(ocsr.out_degrees()[start:] >= self.k - 1) + start
        walk = self._walked[called]
        walked = called[walk]
        return len(called) - len(walked), called[~walk], walked

    def residual_init(
        self, valid: np.ndarray, start: int, finder: "_FindMin"
    ) -> tuple[list[_Entry], int, int]:
        """HeapInit on roots ``start..n-1`` of the graph left on the
        ``valid`` nodes: ``(entries in root order, FindMin calls, lp
        prunes)``.

        The same pass as the build's, without packing masks; the calls
        and prunes are those of the bulk pass, since a walked root goes
        through ``finder`` (an engine's FindMin over the same residual
        graph), which counts its own.
        """
        ocsr = self._ocsr
        n = ocsr.n
        tails = np.repeat(np.arange(n, dtype=np.int64), ocsr.out_degrees())
        keep = valid[tails] & valid[ocsr.cols]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails[keep], minlength=n), out=indptr[1:])
        residual = OrientedCSR(indptr, ocsr.cols[keep], ocsr.rank)
        calls, bulk, walked = self._roots(residual, start)
        entries, pruned = _bulk_init(residual, self._scores, self.k, bulk)
        return _by_root(entries, _walk_entries(walked, finder, self.k)), calls, pruned

    def estimated_bytes(self) -> int:
        """Resident size in bytes (CPython 3.11), measured once.

        Masks, the bit table and the cached heap entries count at their
        real size; the other lists hold small ints, at an 8-byte slot
        plus a 32-byte int object per entry, and the numpy arrays kept
        for :meth:`residual_init` at their ``nbytes``.
        """
        if self._bytes is None:
            lists = self.indptr, self.cols, self.scores
            arrays = (
                self._ocsr.indptr, self._ocsr.cols, self._ocsr.rank,
                self._scores, self._walked,
            )
            self._bytes = (
                40 * sum(len(entries) for entries in lists)
                + 8 * (len(self.masks) + len(self.bits))
                + sum(map(sys.getsizeof, self.masks))
                + sum(map(sys.getsizeof, self.bits))
                + sum(int(array.nbytes) for array in arrays)
                + sys.getsizeof(self.init_entries)
                + sum(map(_entry_bytes, self.init_entries))
            )
        return self._bytes


class _FindMin:
    """Bit-parallel local-minimum clique search with optional pruning.

    Reads the shared :class:`ScoreOrientedCSR` and owns ``valid`` (one
    flag per node), which :meth:`invalidate` clears as cliques enter
    the solution. A search reads its root's live candidates from the
    flags of the root's row.
    """

    __slots__ = ("sub", "valid", "prune", "stats", "best_key", "best")

    def __init__(
        self, substrate: ScoreOrientedCSR, prune: bool, stats: dict[str, float]
    ) -> None:
        self.sub = substrate
        self.valid = [True] * len(substrate.scores)
        self.prune = prune
        self.stats = stats
        self.best_key: CliqueKey = _INF_KEY
        self.best: tuple[int, ...] | None = None

    def live_out_degree(self, u: int) -> int:
        """Number of still-valid out-neighbours of ``u`` (0 once ``u``
        is invalid)."""
        valid = self.valid
        if not valid[u]:
            return 0
        sub = self.sub
        return sum(map(valid.__getitem__, sub.cols[sub.indptr[u] : sub.indptr[u + 1]]))

    def alive(self, v: int) -> bool:
        """Whether ``v`` is still available for a clique."""
        return self.valid[v]

    def invalidate(self, clique: Iterable[int]) -> None:
        """Remove a chosen clique's nodes from the residual graph."""
        valid = self.valid
        for w in clique:
            valid[w] = False

    def search(self, root: int, k: int) -> tuple[CliqueKey, tuple[int, ...]] | None:
        """Minimum-key k-clique rooted at ``root`` in the scored
        subgraph, or ``None``; counts one ``findmin_calls``, and each
        candidate the ``lp`` walk cuts as one ``branches_pruned``."""
        self.stats["findmin_calls"] += 1
        sub, valid = self.sub, self.valid
        # An invalid root is in no clique of the residual graph.
        if not valid[root]:
            return None
        lo, hi = sub.indptr[root], sub.indptr[root + 1]
        row = sub.cols[lo:hi]
        live = list(map(valid.__getitem__, row))
        if sum(live) < k - 1:
            return None
        self.best_key = _INF_KEY
        self.best = None
        if k == 2:
            self._pair(root, list(compress(row, live)))
        elif hi - lo > sub.row_cap:
            self.stats["branches_pruned"] += self._list_walk(
                [root], list(compress(row, live)), k - 1, sub.scores[root]
            )
        else:
            candidates = sum(compress(sub.bits, live))
            self.stats["branches_pruned"] += self._walk(
                [root], row, sub.masks[lo:hi], candidates, k - 1, sub.scores[root]
            )
        if self.best is None:
            return None
        return self.best_key, self.best

    def _pair(self, root: int, members: list[int]) -> None:
        """k = 2: the minimum-key edge from ``root`` to one of ``members``."""
        scores = self.sub.scores
        base = scores[root]
        for u in members:
            key = (base + scores[u], (root, u) if root < u else (u, root))
            if key < self.best_key:
                self.best_key = key
                self.best = key[1]

    def _list_walk(
        self, prefix: list[int], members: list[int], need: int, score_sum: int
    ) -> int:
        """Walk a long row's id-sorted ``members`` (``need >= 2``); returns prunes.

        Each candidate ``u`` narrows the walk to ``members & out(u)``,
        re-based into ``u``'s own row: as a mask over it if the row is
        short, else as a list again.
        """
        sub, prune = self.sub, self.prune
        scores, indptr, cols = sub.scores, sub.indptr, sub.cols
        member_set = set(members)
        best_score = self.best_key[0]
        pruned = 0
        for u in members:
            su = scores[u]
            if prune and score_sum + su >= best_score:
                pruned += 1
                continue
            lo, hi = indptr[u], indptr[u + 1]
            row = cols[lo:hi]
            if need == 2:
                base = score_sum + su
                for v in member_set.intersection(row):
                    total = base + scores[v]
                    if total > best_score:
                        continue
                    clique = tuple(sorted((*prefix, u, v)))
                    key = (total, clique)
                    if key < self.best_key:
                        self.best_key = key
                        self.best = clique
                        best_score = total
                continue
            prefix.append(u)
            if hi - lo > sub.row_cap:
                nxt = [v for v in row if v in member_set]
                if len(nxt) >= need - 1:
                    pruned += self._list_walk(prefix, nxt, need - 1, score_sum + su)
            else:
                mask = sum(compress(sub.bits, map(member_set.__contains__, row)))
                if mask.bit_count() >= need - 1:
                    pruned += self._walk(
                        prefix, row, sub.masks[lo:hi], mask, need - 1, score_sum + su
                    )
            prefix.pop()
            best_score = self.best_key[0]
        return pruned

    def _walk(
        self,
        prefix: list[int],
        row: list[int],
        masks: list[int],
        candidates: int,
        need: int,
        score_sum: int,
    ) -> int:
        """Walk ``candidates`` (``need >= 2`` more nodes); returns prunes."""
        scores, prune = self.sub.scores, self.prune
        best_score = self.best_key[0]
        pruned = 0
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            u = row[j]
            su = scores[u]
            if prune and score_sum + su >= best_score:
                pruned += 1
                continue
            nxt = candidates & masks[j]
            if need > 2:
                if nxt.bit_count() >= need - 1:
                    prefix.append(u)
                    pruned += self._walk(prefix, row, masks, nxt, need - 1, score_sum + su)
                    prefix.pop()
                    best_score = self.best_key[0]
                continue
            base = score_sum + su
            while nxt:
                low = nxt & -nxt
                nxt ^= low
                v = row[low.bit_length() - 1]
                total = base + scores[v]
                if total > best_score:
                    continue
                clique = tuple(sorted((*prefix, u, v)))
                key = (total, clique)
                if key < self.best_key:
                    self.best_key = key
                    self.best = clique
                    best_score = total
        return pruned


class LightweightEngine:
    """Resumable step machine for Algorithm 3 (one heap pop per tick).

    The run moves through two phases — ``"init"`` (HeapInit, one tick)
    and ``"drain"`` (the main loop, one heap pop per tick) — then
    finishes (``"done"``). At every tick boundary ``solution`` is a
    valid disjoint k-clique set; maximality holds once :attr:`finished`
    is true. Solutions and stats are identical to the pre-engine
    monolithic loop (the drive-to-completion wrapper
    :func:`lightweight` is what the pinned equivalence tests run).

    The parameters are those of :func:`lightweight` (``scores`` must be
    the exact k-clique counts), plus ``warm_start`` (cliques seeded into
    the solution before HeapInit).

    :meth:`state_dict` captures ``(phase, next root, heap, solution,
    stats)``; substrates (scores, orientation, validity flags) are
    deterministic functions of the graph plus the replayed solution, so
    :meth:`load_state` rebuilds them instead of serialising them.
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        prune: bool = True,
        listing_order: OrderSpec = "degeneracy",
        scores: np.ndarray | None = None,
        warm_start: Iterable[Iterable[int]] | None = None,
        oriented: ScoreOrientedCSR | None = None,
    ) -> None:
        if k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {k}")
        if scores is None:
            scores = node_scores(graph, k, listing_order)
        elif len(scores) != graph.n:
            raise InvalidParameterError(
                f"scores has length {len(scores)}, expected n={graph.n}"
            )
        if oriented is not None and (oriented.k != k or len(oriented.scores) != graph.n):
            raise InvalidParameterError(
                f"oriented substrate is for k={oriented.k}, n={len(oriented.scores)}; "
                f"expected k={k}, n={graph.n}"
            )
        self.graph = graph
        self.k = k
        self.prune = prune
        self.tag = "lp" if prune else "l"
        self.stats: dict[str, float] = {
            "findmin_calls": 0,
            "branches_pruned": 0,
            "heap_pushes": 0,
            "heap_pops": 0,
            "stale_pops": 0,
            "cliques_taken": 0,
        }
        # ``oriented`` must be built from ``graph`` and ``scores`` (e.g.
        # Preprocessing.score_oriented); the engine only reads it.
        if oriented is None:
            oriented = ScoreOrientedCSR(graph, scores, k)
        self.oriented = oriented
        self.finder = _FindMin(oriented, prune, self.stats)
        self.phase = "init" if graph.n else "done"
        self.next_root = 0
        self.heap: list[tuple[CliqueKey, int, tuple[int, ...]]] = []
        self.solution: list[frozenset[int]] = []

        if warm_start:
            self.stats["warm_seeded"] = 0
            for clique in warm_start:
                if is_seedable_clique(graph, k, clique, self.finder.alive):
                    self.solution.append(frozenset(clique))
                    self.stats["cliques_taken"] += 1
                    self.stats["warm_seeded"] += 1
                    self.finder.invalidate(clique)

    # -- stepping ------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the main loop drained the heap (solution maximal)."""
        return self.phase == "done"

    @property
    def size(self) -> int:
        """Current ``|S|`` of the partial solution."""
        return len(self.solution)

    def tick(self) -> None:
        """Advance one work unit (all of HeapInit, or a main-loop pop)."""
        if self.phase == "init":
            self._heap_init()
            return
        if self.phase == "drain":
            finder, k, stats = self.finder, self.k, self.stats
            key, root, clique = heapq.heappop(self.heap)
            stats["heap_pops"] += 1
            if all(map(finder.alive, clique)):
                self.solution.append(frozenset(clique))
                stats["cliques_taken"] += 1
                finder.invalidate(clique)
            else:
                stats["stale_pops"] += 1
                if finder.alive(root) and finder.live_out_degree(root) >= k - 1:
                    found = finder.search(root, k)
                    if found is not None:
                        new_key, new_clique = found
                        heapq.heappush(self.heap, (new_key, root, new_clique))
                        stats["heap_pushes"] += 1
            if not self.heap:
                self.phase = "done"

    def _heap_init(self) -> None:
        """HeapInit for roots ``next_root..n-1``, then heapify.

        A fresh run copies the substrate's cached entries and counts.
        Otherwise (a warm seed, or a restored ``"init"`` checkpoint)
        the same pass runs over the residual graph, whose nodes are
        those of no solution clique, from ``next_root`` on; its walked
        roots go through the engine's FindMin.
        """
        sub, stats = self.oriented, self.stats
        if self.next_root == 0 and not self.solution:
            entries, calls, pruned = sub.init_entries, sub.init_calls, sub.init_pruned
        else:
            valid = np.ones(self.graph.n, dtype=bool)
            valid[[v for clique in self.solution for v in clique]] = False
            entries, calls, pruned = sub.residual_init(
                valid, self.next_root, self.finder
            )
        stats["findmin_calls"] += calls
        if self.prune:
            stats["branches_pruned"] += pruned
        stats["heap_pushes"] += len(entries)
        self.heap.extend(entries)
        heapq.heapify(self.heap)
        self.next_root = self.graph.n
        self.phase = "drain" if self.heap else "done"

    # -- anytime surface -----------------------------------------------
    def bound(self) -> int:
        """Upper bound on the final ``|S|`` of this run.

        Every future clique is taken from a heap pop, re-pushes never
        grow the heap, and each remaining HeapInit root contributes at
        most one push — so ``|S| + min(free // k, heap + roots left)``
        bounds what draining can still add.
        """
        if self.phase == "done":
            return len(self.solution)
        free = sum(self.finder.valid)
        roots_left = 0
        if self.phase == "init":
            roots_left = self.graph.n - self.next_root
        pending = len(self.heap) + roots_left
        return len(self.solution) + min(free // self.k, pending)

    def snapshot_result(self) -> CliqueSetResult:
        """Current partial solution (always a valid disjoint set)."""
        return CliqueSetResult(
            list(self.solution), k=self.k, method=self.tag, stats=dict(self.stats)
        )

    def result(self) -> CliqueSetResult:
        """Final result; raises unless the run drained to completion."""
        if not self.finished:
            raise InvalidParameterError(
                "engine has not finished; drive tick() to completion first"
            )
        return CliqueSetResult(
            self.solution, k=self.k, method=self.tag, stats=self.stats
        )

    # -- checkpoint / restore ------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable engine state (substrates excluded)."""
        return {
            "phase": self.phase,
            "next_root": self.next_root,
            "heap": [
                [int(key[0]), list(key[1]), int(root), list(clique)]
                for key, root, clique in self.heap
            ],
            "solution": [sorted(c) for c in self.solution],
            "stats": dict(self.stats),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto fresh substrates.

        The residual graph (the validity flags) is rebuilt by replaying
        the checkpointed solution's invalidations; heap entries keep
        their total order under JSON round-tripping, so pop sequences —
        and therefore the final solution and stats — are identical to
        an uninterrupted run.

        The snapshot is checked before anything is applied, and each of
        these raises :class:`InvalidParameterError`: an unknown
        ``phase`` (no tick would ever advance it); a ``next_root`` that
        is not an int in ``[0, n]``; a heap entry that is not a k-clique
        holding its root, keyed ``(Σ scores, sorted clique)``; a
        solution that is not pairwise-disjoint k-cliques; an ``"init"``
        phase whose ``next_root`` is ``n`` (HeapInit ends on reaching
        it) or a ``"drain"`` phase with an empty heap (draining ends on
        emptying it).
        """
        phase = state["phase"]
        if phase not in _PHASES:
            raise InvalidParameterError(
                f"unknown engine phase {phase!r}; expected one of {_PHASES}"
            )
        next_root = state["next_root"]
        if not (is_int(next_root) and 0 <= next_root <= self.graph.n):
            raise InvalidParameterError(
                f"next_root {next_root!r} is not an int in [0, {self.graph.n}]"
            )
        if phase == "init" and next_root == self.graph.n:
            raise InvalidParameterError(
                f"phase 'init' with next_root {next_root} = n has no root left"
            )
        if phase == "drain" and not state["heap"]:
            raise InvalidParameterError("phase 'drain' with an empty heap")
        solution = checked_solution(self.graph, self.k, state["solution"])
        heap: list[tuple[CliqueKey, int, tuple[int, ...]]] = []
        scores = self.oriented.scores
        for entry in state["heap"]:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 4):
                raise InvalidParameterError(
                    f"heap entry {entry!r} is not [score, key clique, root, clique]"
                )
            score, key_clique, root, raw = entry
            clique = checked_clique(self.graph, self.k, raw, "heap clique")
            key = (sum(scores[v] for v in clique), clique)
            if not (is_int(root) and root in clique):
                raise InvalidParameterError(
                    f"heap root {root!r} is not a node of its clique {raw!r}"
                )
            if not (
                isinstance(key_clique, (list, tuple))
                and (score, tuple(key_clique)) == key
            ):
                raise InvalidParameterError(
                    f"heap key ({score!r}, {key_clique!r}) is not {key} for "
                    f"the clique {raw!r}"
                )
            heap.append((key, int(root), clique))
        self.solution = []
        for clique in solution:
            self.solution.append(frozenset(clique))
            self.finder.invalidate(clique)
        self.heap = heap
        heapq.heapify(self.heap)
        self.phase = phase
        self.next_root = int(next_root)
        # In-place replacement keeps the finder's reference valid.
        replaced = {key: value for key, value in state["stats"].items()}
        self.stats.clear()
        self.stats.update(replaced)


def lightweight(
    graph: Graph,
    k: int,
    prune: bool = True,
    listing_order: OrderSpec = "degeneracy",
    scores: np.ndarray | None = None,
    oriented: ScoreOrientedCSR | None = None,
) -> CliqueSetResult:
    """Compute a disjoint k-clique set with Algorithm 3.

    Parameters
    ----------
    graph:
        Input undirected graph.
    k:
        Clique size, ``>= 2``.
    prune:
        ``True`` → the paper's ``LP`` (score-driven pruning in FindMin);
        ``False`` → plain ``L``. Both return identical solutions.
    listing_order:
        Orientation used only for the score-counting pass.
    scores:
        Precomputed node scores for ``k`` (e.g. from a session cache);
        skips the counting pass and makes ``listing_order`` irrelevant.
        They must be the exact per-node k-clique counts: FindMin's
        domain leaves out every node of score 0 (one in no k-clique),
        so a 0 on a node of some k-clique loses maximality.
    oriented:
        The FindMin substrate of ``graph`` under the same ``scores`` and
        ``k`` (e.g. from
        :meth:`repro.core.session.Preprocessing.score_oriented`); skips
        the per-call orientation and arc-mask build. Only read, never
        mutated.

    Returns
    -------
    CliqueSetResult
        Same solution as :func:`repro.core.store_all.store_all_cliques`
        under the shared clique key (Theorem 4), with ``O(n+m)`` space
        (arc masks only on rows of at most :data:`ROW_CAP` nodes).
        This is the drive-to-completion wrapper over
        :class:`LightweightEngine`; for anytime/interruptible execution
        use :meth:`repro.core.session.Session.task`.
    """
    engine = LightweightEngine(
        graph,
        k,
        prune=prune,
        listing_order=listing_order,
        scores=scores,
        oriented=oriented,
    )
    while not engine.finished:
        engine.tick()
    return engine.result()
