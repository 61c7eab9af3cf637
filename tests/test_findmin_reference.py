"""The bit-parallel FindMin and the bulk HeapInit against the set walk.

:class:`SetFindMin` is the former engine walk, kept here as the
reference: it recurses over live out-neighbour *sets* of the
ascending-score orientation, visiting candidates in ``sorted()`` order.
:func:`reference_tick` is the former engine tick, which ran HeapInit
one root per tick through that walk. FindMin's domain is the scored
subgraph (:func:`scored_subgraph`: no node of score 0, which lies in no
k-clique), and the production engine — FindMin
(:class:`repro.core.lightweight._FindMin`) plus the bulk HeapInit of
:class:`~repro.core.lightweight.ScoreOrientedCSR` — must reproduce the
set walk over that domain exactly: the solution and every engine stat,
for any graph, ``k``, pruning mode, warm start and mid-run checkpoint,
because the determinism digests and Theorem 4 tests pin both. The set
walk over the whole graph stays as the reference for what the domain
must not move: the solution and the heap stats are its own, and only
``findmin_calls`` and ``branches_pruned`` count the smaller domain's
work. Tests that patch
``ROW_CAP`` to a few nodes run the long-row path on small graphs; those
that patch ``WEDGE_CAP`` small walk HeapInit roots with FindMin, and a
small ``ROOT_BATCH_BUDGET`` splits the bulk pass into many batches.
:func:`reference_arc_masks` is the former arc-mask build, a wedge pass
of its own, kept as the reference for the masks the substrate now
packs from the bulk HeapInit's hits.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import sys
from typing import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Session
from repro.cliques import csr_kernels
from repro.cliques.counting import node_scores
from repro.core.basic import basic_framework
from repro.core.lightweight import (
    _INF_KEY,
    ROW_CAP,
    WEDGE_CAP,
    LightweightEngine,
    ScoreOrientedCSR,
    _earlier_sibling_min,
)
from repro.errors import InvalidParameterError
from repro.graph.csr import concat_rows
from repro.graph.dag import OrientedCSR, OrientedGraph
from repro.graph.graph import Graph
from repro.graph.generators import erdos_renyi_gnp, powerlaw_cluster
from repro.graph.ordering import by_score

# ``repro.core.lightweight`` as an attribute is the solver function.
LIGHTWEIGHT = sys.modules[ScoreOrientedCSR.__module__]
BATCH_BUDGET = csr_kernels.ROOT_BATCH_BUDGET

#: FindMin's work, counted over its domain.
FINDMIN_STATS = ("findmin_calls", "branches_pruned")
#: The heap's counts, which FindMin's domain does not move.
HEAP_STATS = ("heap_pushes", "heap_pops", "stale_pops", "cliques_taken")
STATS = FINDMIN_STATS + HEAP_STATS


class SetFindMin:
    """Recursive local-minimum clique search over live out-neighbour sets."""

    def __init__(self, out, scores, prune, stats, graph):
        self.out = out
        self.scores = scores
        self.prune = prune
        self.stats = stats
        self.graph = graph
        self.valid = [True] * graph.n
        self.best_key = _INF_KEY
        self.best = None

    def live_out_degree(self, u):
        return len(self.out[u])

    def alive(self, v):
        return self.valid[v]

    def invalidate(self, clique):
        for w in clique:
            self.valid[w] = False
        for w in clique:
            for v in self.graph.neighbors(w):
                self.out[v].discard(w)
            self.out[w].clear()

    def search(self, root, k):
        self.stats["findmin_calls"] += 1
        self.best_key = _INF_KEY
        self.best = None
        candidates = self.out[root]
        if len(candidates) >= k - 1:
            self._walk([root], candidates, k - 1, int(self.scores[root]))
        if self.best is None:
            return None
        return self.best_key, self.best

    def _walk(self, prefix, candidates, need, score_sum):
        out = self.out
        scores = self.scores
        best_score = self.best_key[0]
        if need == 1:
            for u in candidates:
                total = score_sum + int(scores[u])
                if total > best_score:
                    continue
                clique = tuple(sorted(prefix + [u]))
                key = (total, clique)
                if key < self.best_key:
                    self.best_key = key
                    self.best = clique
                    best_score = total
            return
        if need == 2:
            for u in sorted(candidates):
                su = int(scores[u])
                if self.prune and score_sum + su >= best_score:
                    self.stats["branches_pruned"] += 1
                    continue
                for v in candidates & out[u]:
                    total = score_sum + su + int(scores[v])
                    if total > best_score:
                        continue
                    clique = tuple(sorted(prefix + [u, v]))
                    key = (total, clique)
                    if key < self.best_key:
                        self.best_key = key
                        self.best = clique
                        best_score = total
            return
        for u in sorted(candidates):
            su = int(scores[u])
            if self.prune and score_sum + su >= best_score:
                self.stats["branches_pruned"] += 1
                continue
            nxt = candidates & out[u]
            if len(nxt) >= need - 1:
                prefix.append(u)
                self._walk(prefix, nxt, need - 1, score_sum + su)
                prefix.pop()
                best_score = self.best_key[0]


def scored_subgraph(graph, scores):
    """FindMin's domain: ``graph`` without the edges of its nodes of
    score 0."""
    scored = np.asarray(scores) > 0
    return Graph(graph.n, [(u, v) for u, v in graph.edges() if scored[u] and scored[v]])


def set_finder(graph, k, prune, stats, scored=True):
    """A :class:`SetFindMin` over the ascending-score orientation of
    ``graph``'s scored subgraph or, unless ``scored``, of all of it."""
    scores = node_scores(graph, k)
    domain = scored_subgraph(graph, scores) if scored else graph
    out = OrientedGraph(domain, by_score(graph, scores)).out
    return SetFindMin([set(s) for s in out], scores, prune, stats, graph)


def reference_engine(graph, k, prune, warm_start=None, scored=True):
    """An engine whose FindMin is the set walk (warm seed replayed);
    drive it with :func:`reference_tick`."""
    engine = LightweightEngine(graph, k, prune=prune, warm_start=warm_start)
    engine.finder = set_finder(graph, k, prune, engine.stats, scored)
    for clique in engine.solution:
        engine.finder.invalidate(clique)
    return engine


def reference_tick(engine):
    """One engine tick as it was before the bulk HeapInit: an ``"init"``
    tick searches the next root with the engine's FindMin."""
    if engine.phase != "init":
        engine.tick()
        return
    u = engine.next_root
    engine.next_root += 1
    finder, k = engine.finder, engine.k
    found = finder.search(u, k) if finder.live_out_degree(u) >= k - 1 else None
    if found is not None:
        key, clique = found
        engine.heap.append((key, u, clique))
        engine.stats["heap_pushes"] += 1
    if engine.next_root >= engine.graph.n:
        heapq.heapify(engine.heap)
        engine.phase = "drain" if engine.heap else "done"


def reference_heap_init(finder, k, n, start=0):
    """:func:`reference_tick`'s HeapInit over roots ``start..n-1``:
    ``(entries in root order, findmin_calls, branches_pruned)``."""
    calls, pruned = finder.stats["findmin_calls"], finder.stats["branches_pruned"]
    entries = []
    for u in range(start, n):
        found = finder.search(u, k) if finder.live_out_degree(u) >= k - 1 else None
        if found is not None:
            entries.append((found[0], u, found[1]))
    return (
        entries,
        finder.stats["findmin_calls"] - calls,
        finder.stats["branches_pruned"] - pruned,
    )


#: Wedges tested per numpy batch of :func:`reference_arc_masks`.
REFERENCE_WEDGE_BATCH = 1 << 16


def reference_arc_masks(ocsr, tails, built):
    """One Python-int mask per arc of the ``built`` roots (0 elsewhere).

    ``tails[a]`` is the root owning arc ``a``. For the arc
    ``a = (r, u)``, bit ``j`` of ``masks[a]`` is set iff
    ``u -> row(r)[j]``. Every wedge ``r -> u -> w`` of a built root is
    tested in batches of :data:`REFERENCE_WEDGE_BATCH`: the key
    ``r * n + w`` is looked up with ``searchsorted`` in the globally
    sorted arc keys, and the hit position minus ``r``'s row start is
    ``w``'s bit. Hits arrive sorted by (arc, bit), so each 64-bit word
    of a mask is one ``reduceat``.
    """
    n, indptr, cols = ocsr.n, ocsr.indptr, ocsr.cols
    keys = tails * n + cols
    arcs = np.flatnonzero(built[tails])
    wedge_ends = np.cumsum(ocsr.out_degrees()[cols[arcs]])
    words = np.zeros(len(cols), dtype=np.uint64)
    high = []
    start = 0
    while start < len(arcs):
        done = int(wedge_ends[start - 1]) if start else 0
        stop = max(
            start + 1,
            int(np.searchsorted(wedge_ends, done + REFERENCE_WEDGE_BATCH, side="right")),
        )
        pos, w = concat_rows(indptr, cols, cols[arcs[start:stop]])
        arc = arcs[start:stop][pos]
        probe = tails[arc] * n + w
        at = np.searchsorted(keys, probe).clip(max=len(keys) - 1)
        hit = keys[at] == probe
        start = stop
        if not hit.any():
            continue
        arc, at = arc[hit], at[hit]
        bit = at - indptr[tails[arc]]
        word = bit >> 6
        seg = np.flatnonzero(np.r_[True, (np.diff(arc) != 0) | (np.diff(word) != 0)])
        vals = np.bitwise_or.reduceat(
            np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64)), seg
        )
        first = word[seg] == 0
        words[arc[seg[first]]] = vals[first]
        if not first.all():
            rest = ~first
            high.extend(
                zip(arc[seg[rest]].tolist(), word[seg[rest]].tolist(), vals[rest].tolist())
            )
    masks = words.tolist()
    for a, word_index, value in high:
        masks[a] |= value << (64 * word_index)
    return masks


def masked_rows(graph, k, row_cap=ROW_CAP, wedge_cap=WEDGE_CAP):
    """The rows FindMin can walk with masks, as the former build chose
    them: ``(ocsr, tails, built, entry, walked, targets)``, flags per node.

    ``entry`` marks the roots with a HeapInit entry (from the per-root
    set-walk driver) and ``walked`` those walked for their wedge count;
    both are *searched*. ``targets`` are the out-neighbours of searched
    long rows at ``k > 3``. A short row is built if it is searched, or
    a target of out-degree ``>= 2``; none is at ``k = 2``.
    """
    scores = node_scores(graph, k)
    ocsr = OrientedCSR.from_rank(scored_subgraph(graph, scores), by_score(graph, scores))
    n = graph.n
    deg = ocsr.out_degrees()
    tails = np.repeat(np.arange(n, dtype=np.int64), deg)
    short = deg <= row_cap
    wedges = np.bincount(tails, weights=deg[ocsr.cols], minlength=n)
    stats = {"findmin_calls": 0, "branches_pruned": 0}
    entries, _, _ = reference_heap_init(set_finder(graph, k, True, stats), k, n)
    entry = np.zeros(n, dtype=bool)
    entry[[root for _, root, _ in entries]] = True
    walked = (wedges > wedge_cap) & (deg >= k - 1) & (k > 2)
    searched = entry | walked
    targets = np.zeros(n, dtype=bool)
    if k > 3:
        targets[ocsr.cols[(searched & ~short)[tails]]] = True
    built = short & (searched | (targets & (deg >= 2))) & (k > 2)
    return ocsr, tails, built, entry, walked, targets


def drain(engine, ticks=None, tick=LightweightEngine.tick):
    done = 0
    while not engine.finished and (ticks is None or done < ticks):
        tick(engine)
        done += 1
    return engine


def outcome(engine):
    result = engine.result()
    return result.sorted_cliques(), dict(result.stats)


@contextlib.contextmanager
def constants(
    row_cap: int = ROW_CAP, wedge_cap: int = WEDGE_CAP, budget: int = BATCH_BUDGET
) -> Iterator[None]:
    """Patch ``ROW_CAP``, ``WEDGE_CAP`` and ``ROOT_BATCH_BUDGET``."""
    with mock.patch.object(LIGHTWEIGHT, "ROW_CAP", row_cap), mock.patch.object(
        LIGHTWEIGHT, "WEDGE_CAP", wedge_cap
    ), mock.patch.object(csr_kernels, "ROOT_BATCH_BUDGET", budget):
        yield


def substrate_with_cap(graph, k, row_cap):
    """The FindMin substrate built with ``ROW_CAP`` set to ``row_cap``."""
    with constants(row_cap=row_cap):
        return ScoreOrientedCSR(graph, node_scores(graph, k), k)


def assert_matches_reference(
    graph,
    k,
    prune,
    warm_start=None,
    pause_after=None,
    row_cap=ROW_CAP,
    wedge_cap=WEDGE_CAP,
    budget=BATCH_BUDGET,
):
    """The engine — run through, paused then restored from JSON, and
    restored from the reference's own mid-run state — ends with the
    reference's solution and stats."""
    expected = outcome(
        drain(reference_engine(graph, k, prune, warm_start), tick=reference_tick)
    )
    assert set(STATS) <= set(expected[1])
    with constants(row_cap, wedge_cap, budget):
        substrate = ScoreOrientedCSR(graph, node_scores(graph, k), k)

        def engine(warm_start=warm_start):
            return LightweightEngine(
                graph, k, prune=prune, warm_start=warm_start, oriented=substrate
            )

        assert outcome(drain(engine())) == expected
        if pause_after is None:
            return
        paused = [
            drain(engine(), pause_after),
            drain(
                reference_engine(graph, k, prune, warm_start),
                pause_after,
                tick=reference_tick,
            ),
        ]
        for state in paused:
            if state.finished:
                continue
            restored = engine(warm_start=None)
            restored.load_state(json.loads(json.dumps(state.state_dict())))
            assert outcome(drain(restored)) == expected


@st.composite
def graphs(draw):
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        n = draw(st.integers(0, 40))
        return erdos_renyi_gnp(n, draw(st.sampled_from((0.1, 0.25, 0.4, 0.6))), seed=seed)
    n = draw(st.integers(8, 60))
    m_attach = draw(st.integers(2, 6))
    p = draw(st.sampled_from((0.3, 0.6, 0.9)))
    return powerlaw_cluster(n, m_attach, p, seed=seed)


def with_hub(base):
    """``base`` plus a hub node joined to every node."""
    hub = base.n
    return Graph(hub + 1, [*base.edges(), *((hub, v) for v in base.nodes())])


def with_clique_cover(base, size):
    """``base`` with each run of ``size`` consecutive ids joined into a
    clique, so that every node lies in a ``size``-clique (``size``
    divides ``base.n``)."""
    blocks = [range(start, start + size) for start in range(0, base.n, size)]
    cover = {(u, v) for block in blocks for u in block for v in block if u < v}
    return Graph(base.n, sorted(cover.union(base.edges())))


WEDGE_CAPS = st.sampled_from((WEDGE_CAP, 0, 5, 50))
BUDGETS = st.sampled_from((BATCH_BUDGET, 8))

WALK_CASES = dict(
    graph=graphs(),
    k=st.integers(2, 6),
    prune=st.booleans(),
    warm=st.booleans(),
    pause_after=st.none() | st.integers(0, 120),
    row_cap=st.sampled_from((ROW_CAP, 2, 5, 12)),
    wedge_cap=WEDGE_CAPS,
    budget=BUDGETS,
)


def check_walk(graph, k, prune, warm, pause_after, row_cap, wedge_cap, budget):
    warm_start = basic_framework(graph, k).sorted_cliques()[::2] if warm else None
    assert_matches_reference(
        graph, k, prune, warm_start, pause_after, row_cap, wedge_cap, budget
    )


@settings(max_examples=60, deadline=None)
@given(**WALK_CASES)
def test_walk_equals_set_walk_reference(
    graph, k, prune, warm, pause_after, row_cap, wedge_cap, budget
):
    check_walk(graph, k, prune, warm, pause_after, row_cap, wedge_cap, budget)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(**WALK_CASES)
def test_walk_equals_set_walk_reference_deep(
    graph, k, prune, warm, pause_after, row_cap, wedge_cap, budget
):
    check_walk(graph, k, prune, warm, pause_after, row_cap, wedge_cap, budget)


def counts(stats, keys):
    return [stats[key] for key in keys]


@settings(max_examples=60, deadline=None)
@given(
    graph=graphs(),
    k=st.integers(2, 6),
    prune=st.booleans(),
    warm=st.booleans(),
    pause_after=st.integers(0, 120),
)
def test_scored_domain_moves_only_the_findmin_counts(graph, k, prune, warm, pause_after):
    """Against the set walk over the whole graph, the engine ends with
    its solution and heap stats, and with the scored walk's
    ``findmin_calls`` and ``branches_pruned``, run through or restored
    from its own mid-run state. Restored from the whole-graph walk's
    mid-run state, as a checkpoint written before nodes of score 0 left
    FindMin's domain would be, it ends with the same solution and heap
    stats."""
    warm_start = basic_framework(graph, k).sorted_cliques()[::2] if warm else None
    whole, scored = (
        outcome(
            drain(reference_engine(graph, k, prune, warm_start, scored=flag), tick=reference_tick)
        )
        for flag in (False, True)
    )

    def engine(warm_start=warm_start):
        return LightweightEngine(graph, k, prune=prune, warm_start=warm_start)

    def restored(state):
        task = engine(warm_start=None)
        task.load_state(json.loads(json.dumps(state.state_dict())))
        return outcome(drain(task))

    own = [outcome(drain(engine())), restored(drain(engine(), pause_after))]
    for solution, stats in own:
        assert solution == whole[0]
        assert counts(stats, HEAP_STATS) == counts(whole[1], HEAP_STATS)
        assert counts(stats, FINDMIN_STATS) == counts(scored[1], FINDMIN_STATS)
    old = drain(
        reference_engine(graph, k, prune, warm_start, scored=False),
        pause_after,
        tick=reference_tick,
    )
    solution, stats = restored(old)
    assert solution == whole[0]
    assert counts(stats, HEAP_STATS) == counts(whole[1], HEAP_STATS)


MASK_CASES = dict(
    graph=graphs(),
    hub=st.booleans(),
    k=st.integers(2, 6),
    row_cap=st.sampled_from((ROW_CAP, 2, 5, 12, 40)),
    wedge_cap=WEDGE_CAPS,
    budget=BUDGETS,
)


def check_masks(graph, hub, k, row_cap, wedge_cap, budget):
    """The substrate's masks, packed from the bulk HeapInit's hits and
    a pass over the rows it does not cover, are those of the former
    wedge pass over the same rows. A hub makes a long row at every
    small ``row_cap``, whose re-base targets need masks at ``k > 3``;
    a small ``wedge_cap`` walks short rows."""
    if hub:
        graph = with_hub(graph)
    ocsr, tails, built, _, _, _ = masked_rows(graph, k, row_cap, wedge_cap)
    with constants(row_cap, wedge_cap, budget):
        sub = ScoreOrientedCSR(graph, node_scores(graph, k), k)
    assert sub.masks == reference_arc_masks(ocsr, tails, built)


@settings(max_examples=60, deadline=None)
@given(**MASK_CASES)
def test_masks_equal_wedge_pass_reference(graph, hub, k, row_cap, wedge_cap, budget):
    check_masks(graph, hub, k, row_cap, wedge_cap, budget)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(**MASK_CASES)
def test_masks_equal_wedge_pass_reference_deep(graph, hub, k, row_cap, wedge_cap, budget):
    check_masks(graph, hub, k, row_cap, wedge_cap, budget)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_masks_cover_walked_rows_and_rebase_targets(k):
    """On a denser graph, some masked rows are packed by the extra pass:
    walked short rows and, at ``k > 3``, re-base targets without an
    entry."""
    graph = powerlaw_cluster(250, 8, 0.8, seed=3)
    ocsr, tails, built, entry, walked, targets = masked_rows(graph, k, 40, 50)
    assert (built & walked).any()
    assert (built & targets & ~entry & ~walked).any() == (k > 3)
    with constants(row_cap=40, wedge_cap=50, budget=64):
        sub = ScoreOrientedCSR(graph, node_scores(graph, k), k)
    assert sub.masks == reference_arc_masks(ocsr, tails, built)


@settings(max_examples=60, deadline=None)
@given(
    graph=graphs(),
    k=st.integers(2, 5),
    row_cap=st.sampled_from((ROW_CAP, 2, 5, 12)),
    data=st.data(),
)
def test_live_out_degree_reads_validity_flags(graph, k, row_cap, data):
    """After each round of invalidations, every node's live out-degree
    is the size of the set walk's live out-set: 0 for an invalid node,
    and on long and short rows alike. A search from every node, valid
    or not, finds what the set walk finds, with the same counts."""
    engine = LightweightEngine(graph, k, oriented=substrate_with_cap(graph, k, row_cap))
    finder = engine.finder
    reference = set_finder(graph, k, True, {"findmin_calls": 0, "branches_pruned": 0})
    nodes = st.integers(0, graph.n - 1) if graph.n else st.nothing()
    dead = set()
    for _ in range(data.draw(st.integers(0, 3)) + 1):
        assert [finder.live_out_degree(u) for u in graph.nodes()] == [
            reference.live_out_degree(u) for u in graph.nodes()
        ]
        assert not any(finder.live_out_degree(u) for u in dead)
        assert [finder.search(u, k) for u in graph.nodes()] == [
            reference.search(u, k) for u in graph.nodes()
        ]
        for key in ("findmin_calls", "branches_pruned"):
            assert engine.stats[key] == reference.stats[key]
        killed = data.draw(st.sets(nodes, max_size=(graph.n + 3) // 4))
        finder.invalidate(killed)
        reference.invalidate(killed)
        dead |= killed


def assert_bulk_matches_driver(
    graph, k, prune, dead, start, row_cap=ROW_CAP, wedge_cap=WEDGE_CAP, budget=BATCH_BUDGET
):
    """Entries in root order, HeapInit's findmin_calls and
    branches_pruned: the bulk pass over the graph left without ``dead``,
    from root ``start`` on, equals the per-root driver over it (and, on
    the whole graph, so does the substrate's cached HeapInit)."""
    stats = {"findmin_calls": 0, "branches_pruned": 0}
    reference = set_finder(graph, k, prune, stats)
    reference.invalidate(dead)
    expected = reference_heap_init(reference, k, graph.n, start)
    with constants(row_cap, wedge_cap, budget):
        substrate = ScoreOrientedCSR(graph, node_scores(graph, k), k)
        if not dead and not start:
            cold = (substrate.init_entries, substrate.init_calls, substrate.init_pruned)
            assert cold[:2] == expected[:2] and cold[2] * prune == expected[2]
        engine = LightweightEngine(graph, k, prune=prune, oriented=substrate)
        engine.finder.invalidate(dead)
        valid = np.ones(graph.n, dtype=bool)
        valid[list(dead)] = False
        entries, calls, pruned = substrate.residual_init(valid, start, engine.finder)
    assert entries == expected[0]
    assert calls + engine.stats["findmin_calls"] == expected[1]
    assert pruned * prune + engine.stats["branches_pruned"] == expected[2]


@settings(max_examples=80, deadline=None)
@given(
    graph=graphs(),
    k=st.integers(2, 6),
    prune=st.booleans(),
    data=st.data(),
    row_cap=st.sampled_from((ROW_CAP, 5)),
    wedge_cap=WEDGE_CAPS,
    budget=BUDGETS,
)
def test_bulk_heap_init_equals_per_root_driver(
    graph, k, prune, data, row_cap, wedge_cap, budget
):
    nodes = st.integers(0, graph.n - 1) if graph.n else st.nothing()
    dead = sorted(data.draw(st.sets(nodes, max_size=graph.n)))
    start = data.draw(st.integers(0, graph.n))
    assert_bulk_matches_driver(graph, k, prune, dead, start, row_cap, wedge_cap, budget)


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_bulk_heap_init_equals_per_root_driver_on_a_denser_graph(k, prune):
    graph = powerlaw_cluster(250, 8, 0.8, seed=3)
    rng = np.random.default_rng(k)
    assert_bulk_matches_driver(graph, k, prune, [], 0)
    for share in (0.1, 0.3):
        dead = sorted(rng.choice(graph.n, int(share * graph.n), replace=False).tolist())
        start = int(rng.integers(0, graph.n // 2))
        assert_bulk_matches_driver(graph, k, prune, dead, start, wedge_cap=50, budget=64)


def test_earlier_sibling_min_ranks_values_that_would_overflow():
    owner = np.array([0, 0, 0, 1, 1, 2, 3, 3, 3], dtype=np.int64)
    rng = np.random.default_rng(5)
    for cap in (40, 1 << 62):
        values = rng.integers(0, cap + 3, len(owner), dtype=np.int64)
        expected = []
        for i, c in enumerate(owner.tolist()):
            earlier = [v for j, v in enumerate(values.tolist()[:i]) if owner[j] == c]
            expected.append(min([cap, *earlier]))
        assert _earlier_sibling_min(values, owner, cap).tolist() == expected


class TestParentFormatInitCheckpoint:
    """Before the bulk HeapInit, an ``"init"`` checkpoint could stop at
    any root, holding the entries of the roots before it. Such a
    checkpoint (same version) still restores and finishes like the
    uninterrupted run."""

    @pytest.mark.parametrize("wedge_cap", [WEDGE_CAP, 5])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("k", [3, 4])
    def test_mid_init_checkpoint_restores(self, k, warm, wedge_cap):
        graph = powerlaw_cluster(120, 5, 0.6, seed=8)
        session = Session(graph)
        warm_start = session.solve(k, "hg").sorted_cliques()[::2] if warm else None
        uninterrupted = session.task(k, "lp", warm_start=warm_start).run()
        reference = drain(
            reference_engine(graph, k, True, warm_start), graph.n // 2, reference_tick
        )
        state = reference.state_dict()
        assert state["phase"] == "init" and state["next_root"] == graph.n // 2
        assert state["heap"] and bool(state["solution"]) == warm
        with constants(wedge_cap=wedge_cap):
            fresh = Session(graph)
            blob = fresh.task(k, "lp").checkpoint()
            blob["engine"] = state
            task = fresh.restore_task(json.loads(json.dumps(blob)))
            result = task.run()
        assert result.sorted_cliques() == uninterrupted.sorted_cliques()
        assert dict(result.stats) == dict(uninterrupted.stats)


class TestMultiWordMasks:
    """Score-oriented rows longer than 64 put a mask over several words."""

    @pytest.fixture(scope="class")
    def graph(self):
        # No node scores 0 at k <= 5, so the longest rows stay over 64.
        return with_clique_cover(powerlaw_cluster(250, 8, 0.8, seed=3), 5)

    @pytest.mark.parametrize("row_cap", [ROW_CAP, 40])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_masks_match_out_sets(self, graph, k, row_cap):
        scores = node_scores(graph, k)
        sub = substrate_with_cap(graph, k, row_cap)
        assert sub.row_cap == row_cap
        out = OrientedGraph(scored_subgraph(graph, scores), by_score(graph, scores)).out
        rows = [sub.cols[sub.indptr[r] : sub.indptr[r + 1]] for r in graph.nodes()]
        assert max(len(row) for row in rows) > 64
        short = [len(row) <= row_cap for row in rows]
        # Rows the drain can search: roots with a HeapInit entry (from
        # the per-root driver) or walked for their wedge count.
        stats = {"findmin_calls": 0, "branches_pruned": 0}
        entries, _, _ = reference_heap_init(
            set_finder(graph, k, True, stats), k, graph.n
        )
        searched = {root for _, root, _ in entries} | {
            r
            for r, row in enumerate(rows)
            if len(row) >= k - 1
            and k > 2
            and sum(len(rows[u]) for u in row) > WEDGE_CAP
        }
        live = [short[r] and r in searched for r in graph.nodes()]
        # Short rows a long searched row's walk re-bases into.
        targets = {
            u
            for r, row in enumerate(rows)
            if r in searched and not short[r] and k > 3
            for u in row
            if len(rows[u]) >= 2
        }
        assert bool(targets) == (row_cap < 64 and k > 3)
        for r, row in enumerate(rows):
            assert row == sorted(out[r])
            built = short[r] and k > 2 and (live[r] or r in targets)
            for i, u in enumerate(row):
                expected = sum(1 << j for j, w in enumerate(row) if w in out[u])
                assert sub.masks[sub.indptr[r] + i] == (expected if built else 0)

    @pytest.mark.parametrize("row_cap", [ROW_CAP, 40])
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("prune", [True, False])
    def test_engine_matches_reference(self, graph, k, prune, row_cap):
        assert_matches_reference(graph, k, prune, pause_after=40, row_cap=row_cap)


def wheel_with_spokes(d):
    """Hub 0 joined to every node of the rim cycle ``1..d``."""
    rim = [(i, i % d + 1) for i in range(1, d + 1)]
    return Graph(d + 1, [(0, i) for i in range(1, d + 1)] + rim)


class TestLongRows:
    """A hub's score-oriented row is its whole scored neighbourhood:
    masks over it would take space quadratic in its length, so rows over
    ``ROW_CAP`` are walked as candidate lists instead."""

    def test_hub_masks_stay_linear_and_are_counted(self):
        graph = wheel_with_spokes(20_000)
        sub = ScoreOrientedCSR(graph, node_scores(graph, 3), 3)
        assert sub.indptr[1] - sub.indptr[0] == 20_000 > ROW_CAP
        real = sum(8 + sys.getsizeof(x) for x in (*sub.masks, *sub.bits))
        estimate = sub.estimated_bytes()
        # One mask per arc of the hub row would need ~D^2/16 = 25 MB.
        assert real <= estimate <= 200 * (graph.n + graph.m)

    def test_estimate_counts_the_cached_heap_and_arrays(self):
        graph = powerlaw_cluster(3000, 6, 0.8, seed=4)
        sub = ScoreOrientedCSR(graph, node_scores(graph, 4), 4)
        assert len(sub.init_entries) > 100
        seen = set()

        def deep_size(obj):
            if id(obj) in seen:
                return 0
            seen.add(id(obj))
            if isinstance(obj, (tuple, list)):
                return sys.getsizeof(obj) + sum(map(deep_size, obj))
            return sys.getsizeof(obj)

        heap = deep_size(sub.init_entries)
        arrays = sub._ocsr.indptr, sub._ocsr.cols, sub._ocsr.rank, sub._scores, sub._walked
        masks = sum(8 + sys.getsizeof(x) for x in (*sub.masks, *sub.bits))
        # The int lists at their documented 40 bytes per entry, plus the
        # rest at no less than its measured size.
        lists = sub.indptr, sub.cols, sub.scores
        charged = 40 * sum(map(len, lists)) + masks + heap + sum(a.nbytes for a in arrays)
        assert charged <= sub.estimated_bytes() <= 200 * (graph.n + graph.m)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("prune", [True, False])
    def test_hub_graph_matches_reference(self, k, prune):
        # With the hub, every node lies in a 5-clique: none scores 0 at
        # k <= 5, so the hub's row stays over ROW_CAP.
        base = with_clique_cover(powerlaw_cluster(1100, 4, 0.7, seed=5), 4)
        hub = base.n
        graph = with_hub(base)
        sub = ScoreOrientedCSR(graph, node_scores(graph, k), k)
        assert sub.indptr[hub + 1] - sub.indptr[hub] == base.n > ROW_CAP
        assert_matches_reference(graph, k, prune, pause_after=300)


def test_zero_score_root_has_no_arcs_and_no_call():
    # Triangle 3-4-5 plus a star 2-{0, 1} hanging off node 3: at k=3,
    # node 2 has score 0 and two lower-ranked neighbours, which
    # FindMin's domain leaves out.
    graph = Graph(6, [(3, 4), (3, 5), (4, 5), (2, 3), (2, 0), (2, 1)])
    engine = LightweightEngine(graph, 3)
    sub = engine.oriented
    assert sub.scores[2] == 0 and sub.indptr[2] == sub.indptr[3]
    assert engine.finder.live_out_degree(2) == 0
    # HeapInit calls FindMin for the triangle's root alone.
    drain(engine, 1)
    assert sub.init_calls == engine.stats["findmin_calls"] == 1
    assert_matches_reference(graph, 3, prune=True)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_clique_free_component_leaves_the_substrate_unchanged(k):
    """A path and a star hold no triangle, so their nodes score 0 at
    every ``k >= 3``. Laid over isolated nodes, they add no arc, mask,
    HeapInit call or byte to the substrate and leave the solution as it
    was."""
    base = powerlaw_cluster(200, 5, 0.7, seed=11)
    n, hub = base.n, base.n + 299
    path = [(v, v + 1) for v in range(n, n + 199)]
    star = [(v, hub) for v in range(n + 200, hub)]
    plain, extended = (
        Graph(n + 300, [*base.edges(), *extra]) for extra in ((), path + star)
    )
    subs = [ScoreOrientedCSR(g, node_scores(g, k), k) for g in (plain, extended)]
    assert len(subs[1].cols) == len(subs[0].cols)
    assert subs[1].masks == subs[0].masks
    assert subs[1].init_calls == subs[0].init_calls
    assert subs[1].estimated_bytes() == subs[0].estimated_bytes()
    engines = [
        LightweightEngine(g, k, oriented=sub) for g, sub in zip((plain, extended), subs)
    ]
    assert outcome(drain(engines[1]))[0] == outcome(drain(engines[0]))[0]


def test_substrate_for_another_k_or_graph_is_rejected():
    graph = powerlaw_cluster(60, 4, 0.6, seed=2)
    substrate = ScoreOrientedCSR(graph, node_scores(graph, 3), 3)
    with pytest.raises(InvalidParameterError, match="k=3"):
        LightweightEngine(graph, 4, oriented=substrate)
    other = powerlaw_cluster(61, 4, 0.6, seed=2)
    with pytest.raises(InvalidParameterError, match="n=60"):
        LightweightEngine(other, 3, oriented=substrate)
