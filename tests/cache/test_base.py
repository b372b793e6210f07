"""BudgetedCache container and CacheStats accounting."""

from __future__ import annotations

import pytest

from repro.cache.base import BudgetedCache, CacheStats
from repro.cache.lru import LRUPolicy
from repro.errors import CacheError


def make_cache(budget=4, charge=1):
    return BudgetedCache(budget, charge, LRUPolicy())


class TestStats:
    def test_hit_rate(self):
        s = CacheStats(hits=3, misses=1)
        assert s.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0

    def test_snapshot_delta(self):
        s = CacheStats(hits=5, misses=2, evictions=1)
        snap = s.snapshot()
        s.hits += 3
        s.misses += 1
        d = s.delta(snap)
        assert (d.hits, d.misses, d.evictions) == (3, 1, 0)


class TestLookups:
    def test_get_hit_miss_counting(self):
        c = make_cache()
        c.put("a", "1")
        assert c.get("a") == "1"
        assert c.get("b") is None
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_peek_no_side_effects(self):
        c = make_cache()
        c.put("a", "1")
        assert c.peek("a") == "1"
        assert c.peek("b") is None
        assert c.stats.lookups == 0


class TestCapacity:
    def test_eviction_on_overflow(self):
        c = make_cache(budget=2)
        for k in "abc":
            c.put(k, k)
        assert len(c) == 2 and "a" not in c
        assert c.stats.evictions == 1

    def test_oversized_item_rejected(self):
        c = BudgetedCache(4, 10, LRUPolicy())
        assert c.put("big", "x") is False
        assert c.stats.rejections == 1
        assert len(c) == 0

    def test_resize_down_evicts(self):
        c = make_cache(budget=4)
        for k in "abcd":
            c.put(k, k)
        evicted = c.resize(2)
        assert evicted == 2 and len(c) == 2
        assert c.budget_bytes == 2

    def test_resize_up_keeps_contents(self):
        c = make_cache(budget=2)
        c.put("a", "1")
        c.resize(10)
        assert c.get("a") == "1"

    def test_negative_budget_rejected(self):
        with pytest.raises(CacheError):
            make_cache().resize(-1)
        with pytest.raises(CacheError):
            BudgetedCache(-1, 1, LRUPolicy())

    def test_nonpositive_charge_rejected(self):
        for charge in (0, -1):
            with pytest.raises(CacheError, match="charge must be positive"):
                BudgetedCache(10, charge)

    def test_occupancy(self):
        c = make_cache(budget=4)
        c.put("a", "1")
        assert c.occupancy == 0.25
        assert BudgetedCache(0, 1, LRUPolicy()).occupancy == 0.0


class TestMutation:
    def test_overwrite_promotes(self):
        c = make_cache(budget=2)
        c.put("a", "1")
        c.put("b", "2")
        c.put("a", "1*")  # now b is LRU
        c.put("c", "3")
        assert "b" not in c and c.get("a") == "1*"

    def test_remove_counts_invalidation(self):
        c = make_cache()
        c.put("a", "1")
        assert c.remove("a") is True
        assert c.remove("a") is False
        assert c.stats.invalidations == 1
        assert c.stats.evictions == 0

    def test_clear(self):
        c = make_cache()
        for k in "abc":
            c.put(k, k)
        c.clear()
        assert len(c) == 0 and c.used_bytes == 0

    def test_keys_iterates_residents(self):
        c = make_cache()
        c.put("a", "1")
        c.put("b", "2")
        assert sorted(c.keys()) == ["a", "b"]
