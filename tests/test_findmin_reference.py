"""The bit-parallel FindMin against the set walk it replaced.

:class:`SetFindMin` is the former engine walk, kept here as the
reference: it recurses over live out-neighbour *sets* of the
ascending-score orientation, visiting candidates in ``sorted()`` order.
The production walk (:class:`repro.core.lightweight._FindMin`) must
reproduce it exactly — the solution and every engine stat — for any
graph, ``k``, pruning mode, warm start and mid-run checkpoint, because
the determinism digests and Theorem 4 tests pin both. Tests that patch
``ROW_CAP`` to a few nodes run the long-row path on small graphs.
"""

from __future__ import annotations

import json
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cliques.counting import node_scores
from repro.core.basic import basic_framework
from repro.core.lightweight import (
    _INF_KEY,
    ROW_CAP,
    LightweightEngine,
    ScoreOrientedCSR,
)
from repro.errors import InvalidParameterError
from repro.graph.dag import OrientedGraph
from repro.graph.graph import Graph
from repro.graph.generators import erdos_renyi_gnp, powerlaw_cluster
from repro.graph.ordering import by_score

STATS = (
    "findmin_calls",
    "branches_pruned",
    "heap_pushes",
    "heap_pops",
    "stale_pops",
    "cliques_taken",
)


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


def reference_engine(graph, k, prune, warm_start=None):
    """An engine whose FindMin is the set walk (warm seed replayed)."""
    engine = LightweightEngine(graph, k, prune=prune, warm_start=warm_start)
    scores = node_scores(graph, k)
    out = OrientedGraph(graph, by_score(graph, scores)).out
    engine.finder = SetFindMin(
        [set(s) for s in out], scores, prune, engine.stats, graph
    )
    for clique in engine.solution:
        engine.finder.invalidate(clique)
    return engine


def drain(engine, ticks=None):
    done = 0
    while not engine.finished and (ticks is None or done < ticks):
        engine.tick()
        done += 1
    return engine


def outcome(engine):
    result = engine.result()
    return result.sorted_cliques(), dict(result.stats)


def substrate_with_cap(graph, k, row_cap):
    """The FindMin substrate built with ``ROW_CAP`` set to ``row_cap``."""
    # ``repro.core.lightweight`` as an attribute is the solver function.
    module = sys.modules[ScoreOrientedCSR.__module__]
    with mock.patch.object(module, "ROW_CAP", row_cap):
        return ScoreOrientedCSR(graph, node_scores(graph, k), k)


def assert_matches_reference(
    graph, k, prune, warm_start=None, pause_after=None, row_cap=ROW_CAP
):
    """The engine — run through, and paused then restored from JSON —
    ends with the reference's solution and stats."""
    expected = outcome(drain(reference_engine(graph, k, prune, warm_start)))
    assert set(STATS) <= set(expected[1])
    substrate = substrate_with_cap(graph, k, row_cap)

    def engine(warm_start=warm_start):
        return LightweightEngine(
            graph, k, prune=prune, warm_start=warm_start, oriented=substrate
        )

    assert outcome(drain(engine())) == expected
    if pause_after is not None:
        state = json.loads(json.dumps(drain(engine(), pause_after).state_dict()))
        restored = engine(warm_start=None)
        restored.load_state(state)
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


@settings(max_examples=60, deadline=None)
@given(
    graph=graphs(),
    k=st.integers(2, 6),
    prune=st.booleans(),
    warm=st.booleans(),
    pause_after=st.none() | st.integers(0, 120),
    row_cap=st.sampled_from((ROW_CAP, 2, 5, 12)),
)
def test_walk_equals_set_walk_reference(graph, k, prune, warm, pause_after, row_cap):
    warm_start = basic_framework(graph, k).sorted_cliques()[::2] if warm else None
    assert_matches_reference(graph, k, prune, warm_start, pause_after, row_cap)


class TestMultiWordMasks:
    """Score-oriented rows longer than 64 put a mask over several words."""

    @pytest.fixture(scope="class")
    def graph(self):
        return powerlaw_cluster(250, 8, 0.8, seed=3)

    @pytest.mark.parametrize("row_cap", [ROW_CAP, 40])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_masks_match_out_sets(self, graph, k, row_cap):
        scores = node_scores(graph, k)
        sub = substrate_with_cap(graph, k, row_cap)
        assert sub.row_cap == row_cap
        out = OrientedGraph(graph, by_score(graph, scores)).out
        rows = [sub.cols[sub.indptr[r] : sub.indptr[r + 1]] for r in graph.nodes()]
        assert max(len(row) for row in rows) > 64
        short = [len(row) <= row_cap for row in rows]
        searchable = [
            scores[r] > 0 and len(row) >= k - 1 and k > 2 for r, row in enumerate(rows)
        ]
        # Short rows a long searchable row's walk re-bases into.
        targets = {
            u
            for r, row in enumerate(rows)
            if searchable[r] and not short[r] and k > 3
            for u in row
            if len(rows[u]) >= 2
        }
        assert bool(targets) == (row_cap < 64 and k > 3)
        for r, row in enumerate(rows):
            assert row == sorted(out[r])
            assert sub.full[r] == ((1 << len(row)) - 1 if short[r] else 0)
            built = short[r] and (searchable[r] or r in targets)
            for i, u in enumerate(row):
                expected = sum(1 << j for j, w in enumerate(row) if w in out[u])
                assert sub.masks[sub.indptr[r] + i] == (expected if built else 0)
        in_arcs = sorted(
            (w, sub.in_tail[i], sub.in_bit[i])
            for w in graph.nodes()
            for i in range(sub.in_ptr[w], sub.in_ptr[w + 1])
        )
        assert in_arcs == sorted(
            (w, r, j) for r, row in enumerate(rows) if short[r] for j, w in enumerate(row)
        )

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
    """A hub's score-oriented row is its whole neighbourhood: masks over
    it would take space quadratic in its length, so rows over
    ``ROW_CAP`` are walked as candidate lists instead."""

    def test_hub_masks_stay_linear_and_are_counted(self):
        graph = wheel_with_spokes(20_000)
        sub = ScoreOrientedCSR(graph, node_scores(graph, 3), 3)
        assert sub.indptr[1] - sub.indptr[0] == 20_000 > ROW_CAP
        real = sum(8 + sys.getsizeof(x) for x in (*sub.masks, *sub.full))
        estimate = sub.estimated_bytes()
        # One mask per arc of the hub row would need ~D^2/16 = 25 MB.
        assert real <= estimate <= 200 * (graph.n + graph.m)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("prune", [True, False])
    def test_hub_graph_matches_reference(self, k, prune):
        base = powerlaw_cluster(1100, 4, 0.7, seed=5)
        hub = base.n
        graph = Graph(hub + 1, [*base.edges(), *((hub, v) for v in base.nodes())])
        sub = ScoreOrientedCSR(graph, node_scores(graph, k), k)
        assert sub.indptr[hub + 1] - sub.indptr[hub] == base.n > ROW_CAP
        assert_matches_reference(graph, k, prune, pause_after=300)


def test_zero_score_root_counts_its_call_and_returns():
    # Triangle 3-4-5 plus a star 2-{0, 1} hanging off node 3: at k=3,
    # node 2 has score 0 but two lower-ranked out-neighbours.
    graph = Graph(6, [(3, 4), (3, 5), (4, 5), (2, 3), (2, 0), (2, 1)])
    engine = LightweightEngine(graph, 3)
    assert engine.oriented.scores[2] == 0 and engine.finder.live_out_degree(2) == 2
    assert engine.finder.search(2, 3) is None
    assert engine.stats["findmin_calls"] == 1
    assert_matches_reference(graph, 3, prune=True)


def test_substrate_for_another_k_or_graph_is_rejected():
    graph = powerlaw_cluster(60, 4, 0.6, seed=2)
    substrate = ScoreOrientedCSR(graph, node_scores(graph, 3), 3)
    with pytest.raises(InvalidParameterError, match="k=3"):
        LightweightEngine(graph, 4, oriented=substrate)
    other = powerlaw_cluster(61, 4, 0.6, seed=2)
    with pytest.raises(InvalidParameterError, match="n=60"):
        LightweightEngine(other, 3, oriented=substrate)
