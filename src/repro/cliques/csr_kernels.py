"""Array-native k-clique kernels on the oriented-CSR substrate.

This is the package's one static clique engine: listing, counting and
node scores all run here (:mod:`repro.cliques.listing` and
:mod:`repro.cliques.counting` are thin front ends). Counting and node
scores do **not** walk the kClist recursion root by root; they run it
*level-synchronously*: the whole frontier of partial cliques at one
recursion depth is held as flat numpy arrays (a ragged candidate-set
matrix in CSR form) and expanded to the next depth with a constant
number of vectorised operations — one bulk row gather
(:func:`repro.graph.csr.concat_rows`) plus one bulk membership test
against a *biased-key* view of all candidate sets at once (candidate
``w`` of context ``c`` is encoded as ``c * n + w``, which keeps the
flattened candidate array globally sorted). A per-root Python recursion
pays numpy call overhead on every tiny candidate set; the frontier
formulation pays it once per level.

Scratch is bounded by two fixed budgets, not by ``n``: roots (at every
``k >= 3``) are processed in batches sized by an out-degree heuristic
(:data:`ROOT_BATCH_BUDGET`), and the membership test reuses one bit
table of :data:`MEMBER_WINDOW_BITS` bits, a window of whole contexts at
a time. Results are integer sums, so batching never changes them.
Enumeration order is the engine's own (canonicalise with ``sorted``);
the set recursion of :func:`repro.dynamic.local.iter_cliques_within`
is the test reference for its cliques, counts and scores.

The same frontier engine also serves the dynamic maintainer's batched
repair path through *local patches*: :func:`local_oriented_csr`
relabels an induced subgraph (for example a batch's dirty region and
its neighbourhood), gathered from the graph's CSR rows (a dynamic
graph's CSR mirror), into a standalone oriented CSR, and
:func:`iter_cliques_within_csr` enumerates its k-cliques with two
engine-level restrictions — ``require`` (clique must touch a required
node; required nodes get the smallest local ids, making the test a
terminal-level comparison plus a per-level prune) and ``labels``
(clique's labelled members must share one group; incompatible branches
are dropped inside the expansion, which is how owner-mixing cliques are
never materialised during candidate-index refreshes).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import concat_rows, in_sorted, sorted_unique
from repro.graph.dag import OrientedCSR
from repro.graph.dynamic import DynamicGraph
from repro.graph.graph import Graph

#: A frontier level: (cand_indptr, cand_vals, ctx_node, ctx_parent).
_Level = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Root-batch budget: roots are grouped until the sum of their squared
#: out-degrees (an estimate of the first frontier's width) exceeds this.
ROOT_BATCH_BUDGET = 1 << 19

#: Bits per window of the bulk membership table (1 MB). Over the 239
#: membership calls of one seed-1 ``cold_solve`` round (score passes,
#: HeapInit and arc masks; n = 1k-20k, k = 3-5), windows of 2^20 / 2^22
#: / 2^23 / 2^24 / 2^26 bits took 168-204 / 113-134 / 88-119 / 106-127 /
#: 116-135 ms, best of 3 in four sweeps; one table over the whole key
#: domain took 124-132 ms, and binary search alone 342-362 ms.
MEMBER_WINDOW_BITS = 1 << 23


def resolve_backend(*_: object) -> str:
    """The static clique engine: always ``"csr"``, whatever the arguments.

    A compatibility shim for callers outside the package that still ask
    which engine a static pass takes; there is only this one.
    """
    return "csr"


def iter_cliques_csr(
    ocsr: OrientedCSR, k: int, require_below: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every k-clique exactly once from an oriented CSR.

    Same contract as
    :func:`repro.cliques.listing.iter_cliques_oriented`: the first tuple
    element is the root; enumeration order is the engine's own. Cliques
    are produced by the frontier engine one root batch at a time — each
    batch's cliques are reconstructed from the frontier
    arrays (terminal pair plus the parent chain) into one ``(C, k)``
    member matrix, so peak memory is one batch's output rather than the
    whole listing.

    ``require_below`` restricts the output to cliques containing at
    least one node with id ``< require_below``. It is only valid on an
    **identity-ordered** CSR (rank == node id, as produced by
    :func:`local_oriented_csr`; anything else raises
    :class:`~repro.errors.InvalidParameterError`): there out-neighbours
    always have smaller ids than their context, so a clique's minimum
    member is its terminal node and the restriction is one vectorised
    comparison at the terminal level — plus a per-level prune of
    contexts whose candidate sets hold no eligible id (candidate rows
    are sorted, so that is a first-element test). The dynamic
    maintainer uses this to regenerate only the cliques touching a
    dirty node inside a relabelled patch (dirty ids first).
    """
    for members in clique_matrices_csr(ocsr, k, require_below=require_below):
        for row in members.tolist():
            yield tuple(row)


def _identity_rank(ocsr: OrientedCSR) -> bool:
    """Whether the orientation's rank array is the identity permutation."""
    rank = np.asarray(ocsr.rank)
    return bool(np.array_equal(rank, np.arange(len(rank), dtype=rank.dtype)))


def _merge_labels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Combine group labels elementwise (``-1`` is the wildcard)."""
    return np.where(a == -1, b, a)


def _compatible(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether two label arrays can coexist in one clique."""
    return (a == -1) | (b == -1) | (a == b)


def _mask_candidates(level: _Level, keep: np.ndarray) -> _Level:
    """Apply an elementwise keep-mask to a level's candidate values.

    Contexts are preserved (possibly with empty segments — downstream
    prunes and expansions tolerate those); only candidates are dropped.
    """
    cand_indptr, cand_vals, ctx_node, ctx_parent = level
    nctx = len(cand_indptr) - 1
    if bool(keep.all()):
        return level
    owner = np.repeat(np.arange(nctx, dtype=np.int64), np.diff(cand_indptr))
    indptr2 = np.zeros(nctx + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=nctx), out=indptr2[1:])
    return indptr2, cand_vals[keep], ctx_node, ctx_parent


def clique_matrices_csr(
    ocsr: OrientedCSR,
    k: int,
    require_below: int | None = None,
    labels: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Yield ``(C, k)`` int64 member matrices, one per root batch.

    The matrix form of :func:`iter_cliques_csr` (same cliques, same
    per-batch memory bound); callers that post-process cliques in bulk
    (relabelling, filtering) stay vectorised instead of paying a Python
    loop per clique.

    ``labels`` (int64 per node, ``-1`` = unlabelled) restricts output to
    cliques whose labelled members all share one label. Unlike an after
    -the-fact filter, incompatible branches are pruned *inside* the
    frontier — the candidate-clique index uses this with solution-owner
    labels, where most of a dense region's cliques mix two owners and
    are never even expanded, in its full build over the whole graph too.
    """
    indptr, cols = ocsr.indptr, ocsr.cols
    n = len(indptr) - 1
    if require_below is not None and not _identity_rank(ocsr):
        # The min-member-is-terminal argument behind the prune holds
        # only when the orientation order *is* ascending node id (true
        # for local_oriented_csr patches, false for e.g. degeneracy
        # orientations) — anything else would silently drop cliques.
        raise InvalidParameterError(
            "require_below needs an identity-ordered OrientedCSR (a "
            "local patch from local_oriented_csr); this one is ranked "
            "by another order"
        )
    if k == 1:
        stop = n if require_below is None else min(n, require_below)
        if stop > 0:
            yield np.arange(stop, dtype=np.int64)[:, None]
        return
    if k == 2:
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        vals = cols
        keep = np.ones(len(vals), dtype=bool)
        if require_below is not None:
            keep &= vals < require_below
        if labels is not None:
            keep &= _compatible(labels[rows], labels[vals])
        rows, vals = rows[keep], vals[keep]
        if len(vals):
            yield np.stack([rows, vals], axis=1)
        return
    for roots in _root_batches(ocsr, k):
        level = _root_level(ocsr, roots)
        ctx_label = None
        if labels is not None:
            ctx_label = labels[roots]
            nctx = len(level[0]) - 1
            cand_ctx = np.repeat(np.arange(nctx, dtype=np.int64), np.diff(level[0]))
            level = _mask_candidates(
                level, _compatible(ctx_label[cand_ctx], labels[level[1]])
            )
        level, ctx_label = _prune_level(level, require_below, ctx_label)
        levels = [level]
        last_label = ctx_label
        for need_after in range(k - 2, 1, -1):
            nxt, nxt_label = _expand(levels[-1], ocsr, n, need_after, labels, last_label)
            nxt, nxt_label = _prune_level(nxt, require_below, nxt_label)
            levels.append(nxt)
            last_label = nxt_label
            if not len(nxt[1]):
                break
        else:
            pos, w, ok, owner = _level_hits(levels[-1], ocsr, n)
            if require_below is not None:
                ok &= w < require_below
            if labels is not None:
                pair_label = _merge_labels(last_label[owner], labels[levels[-1][1]])
                ok &= _compatible(pair_label[pos], labels[w])
            pos, w = pos[ok], w[ok]  # only the hits outlive this batch
            if not len(pos):
                continue
            members = np.empty((len(pos), k), dtype=np.int64)
            members[:, k - 2] = levels[-1][1][pos]
            members[:, k - 1] = w
            ctx = owner[pos]
            for depth in range(len(levels) - 1, 0, -1):
                members[:, depth] = levels[depth][2][ctx]
                ctx = levels[depth][3][ctx]
            members[:, 0] = levels[0][2][ctx]
            yield members


def local_oriented_csr(
    graph: Graph | DynamicGraph, pool: Sequence[int] | np.ndarray
) -> tuple[OrientedCSR, np.ndarray]:
    """Orient the subgraph induced on ``pool`` as a relabelled CSR patch.

    ``graph`` is a static :class:`~repro.graph.graph.Graph` or a mutable
    :class:`~repro.graph.dynamic.DynamicGraph`; both expose a sorted CSR
    (``csr()``; the dynamic one is its mirror), whose rows of the pool
    are gathered with one :func:`~repro.graph.csr.concat_rows`. ``pool``
    is unique node ids in **any order** — the order *is* the
    orientation: the patch uses ascending local position as the total
    order (any total order roots each clique exactly once), which is
    what lets ``require``-capable callers place required nodes first so
    the engine's ``require_below`` prune applies. No degeneracy pass is
    needed.

    Returns ``(ocsr, pool_arr)`` where ``pool_arr[i]`` is the global id
    of local node ``i``.
    """
    pool_arr = np.asarray(pool, dtype=np.int64)
    nloc = len(pool_arr)
    csr = graph.csr()
    rows_full, flat = concat_rows(csr.indptr, csr.cols, pool_arr)
    # Two relabelling strategies: a dense global position map (O(1) per
    # entry, but an O(graph.n) memset) when the graph is small relative
    # to the gathered volume, and binary search against a sorted view of
    # the pool (patch-sized scratch only) when a small dirty region is
    # extracted from a huge dynamic graph.
    if graph.n <= 8 * len(flat) + 1024:
        local_map = np.full(graph.n, -1, dtype=np.int64)
        local_map[pool_arr] = np.arange(nloc, dtype=np.int64)
        loc = local_map[flat]
    else:
        order = np.argsort(pool_arr, kind="stable")
        sorted_pool = pool_arr[order]
        idx = np.minimum(np.searchsorted(sorted_pool, flat), nloc - 1)
        loc = np.where(sorted_pool[idx] == flat, order[idx], -1)
    keep = (loc >= 0) & (loc < rows_full)
    rows_arr = rows_full[keep]
    cols_arr = loc[keep]
    if len(cols_arr):
        # The gather lists rows in order, so one sort of the row-major
        # keys sorts each row's columns in place (two ascending runs per
        # row, which the stable sort merges).
        cols_arr = np.sort(rows_arr * nloc + cols_arr, kind="stable") % nloc
    indptr = np.zeros(nloc + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows_arr, minlength=nloc), out=indptr[1:])
    return OrientedCSR(indptr, cols_arr, np.arange(nloc, dtype=np.int64)), pool_arr


def _node_array(nodes: Iterable[int] | np.ndarray) -> np.ndarray:
    """``nodes`` as a sorted int64 array without repeats."""
    if not isinstance(nodes, np.ndarray):
        nodes = np.fromiter(nodes, dtype=np.int64)
    return sorted_unique(nodes.astype(np.int64, copy=False))


def iter_cliques_within_csr(
    graph: Graph | DynamicGraph,
    nodes: Iterable[int] | np.ndarray,
    k: int,
    require: Iterable[int] | np.ndarray | None = None,
    labels: np.ndarray | None = None,
) -> Iterator[frozenset[int]]:
    """CSR twin of :func:`repro.dynamic.local.iter_cliques_within`.

    Yields every k-clique whose nodes all lie in ``nodes`` exactly once,
    as frozensets of global node ids, by running the level-synchronous
    frontier engine on a relabelled local patch instead of the per-node
    Python set recursion. Same clique set as the set recursion; only
    the enumeration order differs. ``nodes`` and ``require`` may be any
    iterables of ids or int arrays.

    ``require`` (a subset of ``nodes``) keeps only cliques containing at
    least one required node: the patch is relabelled with required nodes
    first, so the restriction rides the engine's ``require_below``
    prune instead of a posteriori filtering.

    ``labels`` (an int64 group id per global node id, ``-1`` for a
    wildcard, such as the candidate index's owner array) keeps only
    cliques whose labelled members all share one group. Incompatible
    branches are pruned inside the frontier (see
    :func:`clique_matrices_csr`).
    """
    if k < 1:
        return
    pool = _node_array(nodes)
    if len(pool) < k:
        return
    below = None
    if require is not None:
        required = _node_array(require)
        required = required[in_sorted(pool, required)]
        if not len(required):
            return
        pool = np.concatenate((required, pool[~in_sorted(required, pool)]))
        below = len(required)
    ocsr, pool_arr = local_oriented_csr(graph, pool)
    for members in clique_matrices_csr(
        ocsr, k, require_below=below, labels=None if labels is None else labels[pool]
    ):
        for row in pool_arr[members].tolist():
            yield frozenset(row)


def _prune_level(
    level: _Level,
    require_below: int | None,
    ctx_label: np.ndarray | None = None,
) -> tuple[_Level, np.ndarray | None]:
    """Drop contexts that cannot complete a clique with a node ``< require_below``.

    A context's candidate segments are sorted ascending, so eligibility
    is ``cand_vals[segment_start] < require_below`` — one gather and one
    comparison for the whole level. Contexts whose prefix already holds
    an eligible node pass automatically: every candidate is smaller than
    every prefix node, so their first candidate is eligible too.
    ``ctx_label`` (per-context group labels) is pruned in lockstep.
    Returns ``(level, ctx_label)``.
    """
    if require_below is None:
        return level, ctx_label
    cand_indptr, cand_vals, ctx_node, ctx_parent = level
    nctx = len(cand_indptr) - 1
    if not nctx or not len(cand_vals):
        return level, ctx_label
    starts = cand_indptr[:-1]
    lens = np.diff(cand_indptr)
    keep = (lens > 0) & (cand_vals[np.minimum(starts, len(cand_vals) - 1)] < require_below)
    kept = np.flatnonzero(keep)
    if len(kept) == nctx:
        return level, ctx_label
    indptr2 = np.zeros(len(kept) + 1, dtype=np.int64)
    np.cumsum(lens[kept], out=indptr2[1:])
    _, vals2 = concat_rows(cand_indptr, cand_vals, kept)
    parent2 = ctx_parent[kept] if len(ctx_parent) else ctx_parent
    label2 = ctx_label[kept] if ctx_label is not None else None
    return (indptr2, vals2, ctx_node[kept], parent2), label2


# ----------------------------------------------------------------------
# Level-synchronous frontier engine (counting and node scores)
# ----------------------------------------------------------------------
# A frontier level is four arrays describing every partial clique
# ("context") at one recursion depth:
#   cand_indptr : int64[nctx + 1] — segment pointers into cand_vals
#   cand_vals   : int64[*]        — each context's candidate set,
#                                   sorted ascending within its segment
#   ctx_node    : int64[nctx]     — node chosen at this level (the root
#                                   for level 0)
#   ctx_parent  : int64[nctx]     — parent context index one level up
_EMPTY = np.empty(0, dtype=np.int64)


def _member(
    biased: np.ndarray, owner: np.ndarray, pos: np.ndarray, w: np.ndarray, n: int, nctx: int
) -> np.ndarray:
    """Bulk membership of the keys ``owner[pos] * n + w`` in the sorted
    unique array ``biased``.

    Both hold biased keys ``c * n + w`` of contexts ``c < nctx``, and
    the keys are grouped by ascending context (in any order within
    one), so a window of whole contexts, about
    :data:`MEMBER_WINDOW_BITS` bits, is one ``searchsorted`` range of
    each. Per window, ``biased`` is scattered into one reused bit table
    (shared bytes OR-merged by a ``reduceat``), the keys are answered
    with a gather and a shift — O(1) per key instead of a binary search
    — and the set bytes are cleared.
    """
    if not len(biased) or not len(pos):
        return np.zeros(len(pos), dtype=bool)
    keys = owner[pos]
    keys *= n
    keys += w
    span = max(1, MEMBER_WINDOW_BITS // n)
    bounds = np.arange(0, nctx + span, span, dtype=np.int64) * n
    got = np.zeros(len(keys), dtype=np.uint8)
    b_at = np.searchsorted(biased, bounds).tolist()
    k_at = np.searchsorted(keys, bounds).tolist()
    table = np.zeros((min(span, nctx) * n >> 3) + 1, dtype=np.uint8)
    for i, base in enumerate(bounds[:-1].tolist()):
        b0, b1, k0, k1 = b_at[i], b_at[i + 1], k_at[i], k_at[i + 1]
        if b0 == b1 or k0 == k1:
            continue
        off = biased[b0:b1] - base
        byte_idx = off >> 3
        first = np.flatnonzero(np.r_[True, byte_idx[1:] != byte_idx[:-1]])
        table[byte_idx[first]] = np.bitwise_or.reduceat(
            np.uint8(1) << (off & 7).astype(np.uint8), first
        )
        # In place from here: the window's keys become byte offsets and
        # the table bytes land in the output itself (``clip`` takes them
        # unbuffered; every offset is in range).
        off = keys[k0:k1]
        off -= base
        shift = off.astype(np.uint8)
        shift &= 7
        off >>= 3
        win = got[k0:k1]
        np.take(table, off, out=win, mode="clip")
        win >>= shift
        win &= 1
        table[byte_idx] = 0
    return got.view(bool)


def _root_batches(
    ocsr: OrientedCSR, k: int, roots: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """Eligible roots (or the ascending ``roots`` given), grouped so
    each batch's frontier stays bounded."""
    outdeg = ocsr.out_degrees()
    if roots is None:
        roots = np.flatnonzero(outdeg >= k - 1)
    if not len(roots):
        return
    est = np.cumsum(outdeg[roots] * outdeg[roots])
    start = 0
    while start < len(roots):
        base = est[start - 1] if start else 0
        stop = int(np.searchsorted(est, base + ROOT_BATCH_BUDGET)) + 1
        yield roots[start:stop]
        start = stop


def _root_level(ocsr: OrientedCSR, roots: np.ndarray) -> _Level:
    """Level-0 frontier: one context per root, candidates = out rows."""
    lens = ocsr.out_degrees()[roots]
    cand_indptr = np.zeros(len(roots) + 1, dtype=np.int64)
    np.cumsum(lens, out=cand_indptr[1:])
    _, cand_vals = concat_rows(ocsr.indptr, ocsr.cols, roots)
    return cand_indptr, cand_vals, roots, _EMPTY


def _expand(
    level: _Level,
    ocsr: OrientedCSR,
    n: int,
    need_after: int,
    labels: np.ndarray | None = None,
    ctx_label: np.ndarray | None = None,
) -> tuple[_Level, np.ndarray | None]:
    """One frontier step: branch every context on each of its candidates.

    The new context for ``(c, v)`` gets candidates ``C_c ∩ out(v)``,
    computed for the whole level at once: gather every candidate's out
    row, then bulk-test membership in the owning context's candidate
    set via biased keys. Contexts that cannot reach a k-clique any more
    (fewer than ``need_after`` candidates) are dropped, like the
    ``len(nxt) >= depth - 1`` guard of the set recursion.

    With ``labels``/``ctx_label`` (group-constrained enumeration),
    candidates incompatible with the new context's merged label are
    dropped before grouping, and each new context's label is returned
    alongside the level: ``(level2, ctx_label2)`` (``ctx_label2`` is
    ``None`` in the unlabelled case).
    """
    cand_vals = level[1]
    pos, w, ok, owner = _level_hits(level, ocsr, n)
    new_label_at_pos = None
    if labels is not None:
        new_label_at_pos = _merge_labels(ctx_label[owner], labels[cand_vals])
        ok = ok & _compatible(new_label_at_pos[pos], labels[w])
    new_owner = pos[ok]
    new_lens = np.bincount(new_owner, minlength=len(cand_vals))
    keep = new_lens >= need_after
    kept = np.flatnonzero(keep)
    vals2 = w[ok][keep[new_owner]]
    indptr2 = np.zeros(len(kept) + 1, dtype=np.int64)
    np.cumsum(new_lens[kept], out=indptr2[1:])
    label2 = new_label_at_pos[kept] if new_label_at_pos is not None else None
    return (indptr2, vals2, cand_vals[kept], owner[kept]), label2


def _level_hits(
    level: _Level, ocsr: OrientedCSR, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared hit detection: every edge inside every candidate set.

    One bulk gather plus one biased-key membership test for the whole
    level. Returns ``(pos, w, ok, owner)``: candidate position,
    gathered out-neighbour, hit mask (``w`` lies in the candidate set
    owning position ``pos``), and the candidate→context map. A hit is
    a branch continuation for :func:`_expand` and a completed clique
    at the terminal depth.
    """
    cand_indptr, cand_vals = level[0], level[1]
    nctx = len(cand_indptr) - 1
    owner = np.repeat(np.arange(nctx, dtype=np.int64), np.diff(cand_indptr))
    biased = cand_vals + n * owner
    pos, w = concat_rows(ocsr.indptr, ocsr.cols, cand_vals)
    return pos, w, _member(biased, owner, pos, w, n, nctx), owner


def count_cliques_csr(ocsr: OrientedCSR, k: int) -> int:
    """Total k-clique count from an oriented CSR, without storing cliques.

    Runs the frontier engine one root batch at a time down to depth 2,
    where the surviving contexts' internal edges are counted with one
    bulk membership test (at ``k = 3`` the roots' out-rows are those
    contexts).
    """
    n = ocsr.n
    if k == 1:
        return n
    if k == 2:
        return len(ocsr.cols)
    total = 0
    for roots in _root_batches(ocsr, k):
        level = _root_level(ocsr, roots)
        for need_after in range(k - 2, 1, -1):
            level, _ = _expand(level, ocsr, n, need_after)
            if not len(level[1]):
                break
        else:
            _, _, ok, _ = _level_hits(level, ocsr, n)
            total += int(ok.sum())
    return total


def node_scores_csr(ocsr: OrientedCSR, k: int, scores: np.ndarray) -> np.ndarray:
    """Accumulate per-node k-clique counts (``k >= 3``) into ``scores``.

    Same frontier sweep as :func:`count_cliques_csr`, plus credit
    assignment: the two terminal nodes of each completed clique are
    credited with scatter-adds at the base, and each context's
    completion count is propagated back up the parent chain so every
    prefix node (and finally the root) receives one credit per clique
    below it.
    """
    n = ocsr.n
    for roots in _root_batches(ocsr, k):
        levels = [_root_level(ocsr, roots)]
        for need_after in range(k - 2, 1, -1):
            levels.append(_expand(levels[-1], ocsr, n, need_after)[0])
            if not len(levels[-1][1]):
                break
        else:
            pos, w, ok, owner = _level_hits(levels[-1], ocsr, n)
            pos, w = pos[ok], w[ok]  # only the hits outlive this batch
            if not len(pos):
                continue
            np.add.at(scores, levels[-1][1][pos], 1)
            np.add.at(scores, w, 1)
            # Completions per deepest context, then up the parent chain.
            per_ctx = np.bincount(owner[pos], minlength=len(levels[-1][0]) - 1)
            for depth in range(len(levels) - 1, 0, -1):
                _, _, ctx_node, ctx_parent = levels[depth]
                np.add.at(scores, ctx_node, per_ctx)
                per_ctx = np.bincount(
                    ctx_parent, weights=per_ctx, minlength=len(levels[depth - 1][0]) - 1
                ).astype(np.int64)
            np.add.at(scores, levels[0][2], per_ctx)
    return scores
