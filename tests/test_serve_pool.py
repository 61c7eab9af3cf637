"""Session pool: fingerprint stability, LRU order, byte-budget eviction."""

import threading

import pytest

from repro.core.session import Session
from repro.errors import InvalidParameterError
from repro.graph.generators import powerlaw_cluster, ring_of_cliques
from repro.graph.graph import Graph
from repro.graph.fingerprint import graph_fingerprint
from repro.serve.pool import SessionPool

TRIANGLES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]


def graph_family(count):
    """Distinct small graphs with distinct fingerprints."""
    return [ring_of_cliques(3 + i, 3) for i in range(count)]


class TestFingerprint:
    def test_stable_across_construction_order(self):
        a = Graph(6, TRIANGLES)
        b = Graph(6, list(reversed(TRIANGLES)))
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_stable_across_duplicate_edges(self):
        a = Graph(6, TRIANGLES)
        b = Graph(6, TRIANGLES + [(2, 1), (5, 4)])
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_edge_change_changes_fingerprint(self):
        a = Graph(6, TRIANGLES)
        b = Graph(6, TRIANGLES + [(0, 3)])
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_isolated_nodes_matter(self):
        # Coverage denominators depend on n, so n is part of identity.
        a = Graph(6, TRIANGLES)
        b = Graph(7, TRIANGLES)
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_deterministic_across_calls(self):
        g = powerlaw_cluster(200, 4, 0.5, seed=1)
        assert graph_fingerprint(g) == graph_fingerprint(g)
        assert graph_fingerprint(g).startswith("g1-")

    def test_session_fingerprint_cached_and_shared(self):
        g = Graph(6, TRIANGLES)
        session = Session(g)
        assert session.fingerprint() == graph_fingerprint(g)
        assert session.fingerprint() is session.fingerprint()

    def test_rejects_non_graph(self):
        with pytest.raises(InvalidParameterError):
            graph_fingerprint([(0, 1)])


class TestPoolHits:
    def test_equal_graphs_share_a_session(self):
        pool = SessionPool()
        a = Graph(6, TRIANGLES)
        b = Graph(6, list(reversed(TRIANGLES)))
        assert pool.get(a) is pool.get(b)
        assert pool.stats == {"hits": 1, "misses": 1, "evictions": 0}

    def test_distinct_graphs_get_distinct_sessions(self):
        pool = SessionPool()
        g1, g2 = graph_family(2)
        assert pool.get(g1) is not pool.get(g2)
        assert len(pool) == 2

    def test_hit_reuses_warm_substrates(self):
        pool = SessionPool()
        g = Graph(6, TRIANGLES)
        pool.get(g).solve(3)
        info = pool.get(g).cache_info()
        assert info["ks_with_scores"] == (3,)

    def test_lookup_does_not_admit(self):
        pool = SessionPool()
        g = Graph(6, TRIANGLES)
        assert pool.lookup(graph_fingerprint(g)) is None
        session = pool.get(g)
        assert pool.lookup(session.fingerprint()) is session


class TestLRUEviction:
    def test_count_budget_evicts_least_recent(self):
        pool = SessionPool(max_sessions=2)
        g1, g2, g3 = graph_family(3)
        s1, s2 = pool.get(g1), pool.get(g2)
        pool.get(g3)
        assert len(pool) == 2
        assert s1.fingerprint() not in pool
        assert s2.fingerprint() in pool
        assert pool.stats["evictions"] == 1

    def test_hit_refreshes_recency(self):
        pool = SessionPool(max_sessions=2)
        g1, g2, g3 = graph_family(3)
        s1 = pool.get(g1)
        pool.get(g2)
        pool.get(g1)  # refresh g1: g2 becomes LRU
        pool.get(g3)
        assert s1.fingerprint() in pool
        assert len(pool) == 2

    def test_evicted_graph_readmits_cold(self):
        pool = SessionPool(max_sessions=1)
        g1, g2 = graph_family(2)
        s1 = pool.get(g1)
        pool.get(g2)
        assert pool.get(g1) is not s1  # fresh session, caches gone

    def test_fingerprints_in_lru_order(self):
        pool = SessionPool()
        g1, g2 = graph_family(2)
        f1, f2 = pool.get(g1).fingerprint(), pool.get(g2).fingerprint()
        assert pool.fingerprints() == (f1, f2)
        pool.get(g1)
        assert pool.fingerprints() == (f2, f1)


class TestByteBudget:
    def test_byte_budget_evicts_until_it_fits(self):
        # Deterministic injected estimator: 100 bytes per session.
        pool = SessionPool(max_bytes=250, estimate=lambda s: 100)
        graphs = graph_family(4)
        for g in graphs:
            pool.get(g)
        assert len(pool) == 2  # 2 * 100 <= 250 < 3 * 100
        assert pool.stats["evictions"] == 2
        # The survivors are the most recently admitted.
        survivors = pool.fingerprints()
        assert survivors == tuple(graph_fingerprint(g) for g in graphs[2:])

    def test_oversized_session_still_admitted_alone(self):
        pool = SessionPool(max_bytes=10, estimate=lambda s: 100)
        g1, g2 = graph_family(2)
        pool.get(g1)
        pool.get(g2)
        assert len(pool) == 1  # never evicts down to zero

    def test_real_estimator_monotone_in_cache_content(self):
        g = powerlaw_cluster(300, 5, 0.5, seed=2)
        session = Session(g)
        cold = session.estimated_bytes()
        session.solve(3)  # lp: no per-node out-sets built
        warm = session.estimated_bytes()
        # Reuses the cached degeneracy orientation and builds its out-sets.
        session.solve(3, "hg", order="degeneracy")
        with_sets = session.estimated_bytes()
        session.prep.cliques(3)
        listed = session.estimated_bytes()
        assert cold < warm < with_sets < listed

    def test_estimate_charges_graph_sets_only_once_built(self):
        lazy = powerlaw_cluster(300, 5, 0.5, seed=2)
        eager = powerlaw_cluster(300, 5, 0.5, seed=2)
        eager.neighbors(0)  # builds the eager graph's neighbour sets
        sessions = Session(lazy), Session(eager)
        for session in sessions:
            session.solve(3)  # lp: builds no neighbour sets
        assert not lazy.has_sets
        assert sessions[0].estimated_bytes() < sessions[1].estimated_bytes()
        for session in sessions:
            session.solve(3, "hg", order="degeneracy")  # reads the sets
        assert lazy.has_sets
        assert sessions[0].estimated_bytes() == sessions[1].estimated_bytes()

    def test_growth_after_admission_is_reclaimed_on_next_admit(self):
        sizes = {}
        pool = SessionPool(max_bytes=300, estimate=lambda s: sizes.get(id(s), 100))
        g1, g2, g3 = graph_family(3)
        s1 = pool.get(g1)
        sizes[id(s1)] = 100
        s2 = pool.get(g2)
        sizes[id(s2)] = 100
        sizes[id(s1)] = 250  # s1's caches grew after admission
        s3 = pool.get(g3)
        sizes[id(s3)] = 100
        # 250 + 100 + 100 > 300 -> evict s1 (LRU), then 200 fits.
        assert s1.fingerprint() not in pool
        assert len(pool) == 2

    def test_invalid_budgets_rejected(self):
        with pytest.raises(InvalidParameterError):
            SessionPool(max_sessions=0)
        with pytest.raises(InvalidParameterError):
            SessionPool(max_bytes=-1)


class TestPoolManagement:
    def test_explicit_evict_and_clear(self):
        pool = SessionPool()
        g1, g2 = graph_family(2)
        f1 = pool.get(g1).fingerprint()
        pool.get(g2)
        assert pool.evict(f1)
        assert not pool.evict(f1)
        assert pool.clear() == 1
        assert len(pool) == 0

    def test_info_snapshot(self):
        pool = SessionPool(max_sessions=5, estimate=lambda s: 7)
        pool.get(Graph(6, TRIANGLES))
        info = pool.info()
        assert info["sessions"] == 1
        assert info["bytes"] == 7
        assert info["max_sessions"] == 5
        assert info["misses"] == 1

    def test_concurrent_get_single_admission(self):
        pool = SessionPool()
        g = powerlaw_cluster(100, 4, 0.5, seed=5)
        barrier = threading.Barrier(8)
        sessions = []

        def worker():
            barrier.wait()
            sessions.append(pool.get(g))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(s) for s in sessions}) == 1
        assert pool.stats["misses"] == 1
        assert pool.stats["hits"] == 7
