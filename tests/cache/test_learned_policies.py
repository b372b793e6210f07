"""LeCaR and Cacheus: regret learning, expert structure, adaptivity."""

from __future__ import annotations

import pytest

from repro.cache.base import BudgetedCache
from repro.cache.cacheus import CacheusPolicy, CRLFUPolicy, SRLRUPolicy
from repro.cache.lecar import LeCaRPolicy
from repro.errors import CacheError


class TestLeCaR:
    def test_weights_start_balanced(self):
        assert LeCaRPolicy(seed=1).weights == (0.5, 0.5)

    def test_ghost_hit_penalizes_culprit(self):
        p = LeCaRPolicy(history_size=8, seed=1)
        p.record_insert("a")
        victim = p.select_victim()
        p.record_evict(victim)
        w_before = p.weights
        p.record_insert(victim)  # the evicted key returns: regret
        w_after = p.weights
        assert w_after != w_before
        assert abs(sum(w_after) - 1.0) < 1e-9

    def test_invalidation_is_not_a_mistake(self):
        p = LeCaRPolicy(history_size=8, seed=1)
        p.record_insert("a")
        p.record_remove("a")
        w_before = p.weights
        p.record_insert("a")  # not in any ghost list
        assert p.weights == w_before

    def test_history_bounded(self):
        p = LeCaRPolicy(history_size=4, seed=1)
        for i in range(20):
            key = f"k{i}"
            p.record_insert(key)
            victim = p.select_victim()
            p.record_evict(victim)
        assert len(p._history) <= 4

    def test_validates_history_size(self):
        with pytest.raises(CacheError):
            LeCaRPolicy(history_size=0)

    def test_converges_toward_lfu_under_frequency_skew(self):
        """When LRU keeps evicting hot keys, LFU's weight should rise.

        Each round warms two hot keys (building LFU frequency) and then
        streams six one-shot cold keys through a 4-slot cache.  The LRU
        arm evicts the hot keys during the cold stream; when they return
        the regret hit on LRU's ghost list shifts weight to LFU, whose
        arm sacrifices the never-returning colds instead.
        """
        p = LeCaRPolicy(history_size=64, seed=3)
        cache = BudgetedCache(4, 1, p)
        cold = 0
        for _ in range(100):
            for _ in range(5):
                for h in ("h1", "h2"):
                    if cache.get(h) is None:
                        cache.put(h, "v")
            for _ in range(6):
                cache.put(f"c{cold}", "v")
                cold += 1
        w_lru, w_lfu = p.weights
        assert w_lfu > 0.9


class TestSRLRU:
    def test_one_hit_keys_evicted_before_reused(self):
        p = SRLRUPolicy()
        p.record_insert("reused")
        p.record_access("reused")  # promoted to safe
        p.record_insert("scan1")
        p.record_insert("scan2")
        assert p.select_victim() in ("scan1", "scan2")

    def test_history_hint_inserts_safe(self):
        p = SRLRUPolicy()
        p.record_insert("a", safe=True)
        p.record_insert("b")
        assert p.select_victim() == "b"

    def test_empty_raises(self):
        with pytest.raises(CacheError):
            SRLRUPolicy().select_victim()

    def test_rebalance_keeps_safe_at_most_half(self):
        p = SRLRUPolicy()
        for i in range(10):
            key = f"k{i}"
            p.record_insert(key)
            p.record_access(key)
        assert len(p._s) <= len(p) // 2 + 1


class TestCRLFU:
    def test_evicts_most_recent_of_cold_bucket(self):
        p = CRLFUPolicy()
        p.record_insert("old_cold")
        p.record_insert("new_cold")
        p.record_insert("hot")
        p.record_access("hot")
        assert p.select_victim() == "new_cold"

    def test_empty_raises(self):
        with pytest.raises(CacheError):
            CRLFUPolicy().select_victim()


class TestCacheus:
    def test_weights_normalised(self):
        p = CacheusPolicy(history_size=8, seed=1)
        p.record_insert("a")
        victim = p.select_victim()
        p.record_evict(victim)
        p.record_insert(victim)
        assert abs(sum(p.weights) - 1.0) < 1e-9

    def test_learning_rate_adapts(self):
        p = CacheusPolicy(history_size=16, seed=1)
        initial_lr = p.learning_rate
        cache = BudgetedCache(4, 1, p)
        for i in range(200):
            cache.put(f"k{i % 40}", "v")
            cache.get(f"k{(i * 3) % 40}")
        assert p.learning_rate != initial_lr
        assert 0.001 <= p.learning_rate <= 1.0

    def test_returning_key_goes_to_safe_list(self):
        p = CacheusPolicy(history_size=8, seed=1)
        p.record_insert("a")
        p.select_victim()
        p.record_evict("a")
        p.record_insert("a")  # from ghost: safe
        p.record_insert("b")  # probationary
        assert p.select_victim() == "b"

    def test_contract_under_budgeted_cache(self):
        cache = BudgetedCache(8, 1, CacheusPolicy(history_size=8, seed=2))
        for i in range(100):
            cache.put(i % 20, "v")
            cache.get((i * 7) % 20)
        assert len(cache) <= 8
