"""GhostList and the shared second-tier cache: admission, ARC ghosts,
byte conservation, shard purges, and invariants."""

from __future__ import annotations

import pytest

from repro.cache.ghost import GhostList
from repro.cache.tier2 import Tier2Cache
from repro.errors import CacheError, InvariantError
from repro.lsm.block import BlockHandle, DataBlock

BLOCK = 4096


def _block(n: int = 0) -> DataBlock:
    return DataBlock(BlockHandle(0, n), [f"k{n:04d}"], [f"v{n}"])


def _key(shard: int, n: int):
    return (shard, BlockHandle(sst_id=shard * 1000 + 1, block_no=n))


def _cache(blocks: int = 4, **kw) -> Tier2Cache:
    return Tier2Cache(blocks * BLOCK, BLOCK, **kw)


def _fill(cache: Tier2Cache, keys) -> None:
    """Force-admit keys via the double-hit path (probe twice, offer)."""
    for key in keys:
        cache.tier2_probe(key)
        cache.tier2_probe(key)
        assert cache.tier2_offer(key, _block())


class TestGhostList:
    def test_capacity_must_be_positive(self):
        with pytest.raises(CacheError):
            GhostList(0)

    def test_record_contains_discard(self):
        ghosts: GhostList[str] = GhostList(4)
        ghosts.record("a")
        assert "a" in ghosts and len(ghosts) == 1
        assert ghosts.discard("a")
        assert not ghosts.discard("a")
        assert "a" not in ghosts

    def test_fifo_trim_past_capacity(self):
        ghosts: GhostList[int] = GhostList(3)
        for i in range(5):
            ghosts.record(i)
        assert list(ghosts) == [2, 3, 4]

    def test_rerecord_refreshes_position(self):
        ghosts: GhostList[int] = GhostList(3)
        for i in range(3):
            ghosts.record(i)
        ghosts.record(0)  # now youngest
        ghosts.record(3)
        assert list(ghosts) == [2, 0, 3]

    def test_invariants_catch_overflow(self):
        ghosts: GhostList[int] = GhostList(2)
        ghosts.record(1)
        ghosts._keys[99] = None  # corrupt past capacity
        ghosts._keys[98] = None
        with pytest.raises(InvariantError):
            ghosts.check_invariants()


class TestAdmission:
    def test_cold_offer_is_rejected(self):
        cache = _cache()
        key = _key(0, 0)
        assert not cache.tier2_offer(key, _block())
        assert cache.rejects == 1 and cache.stats.insertions == 0
        assert key not in cache

    def test_second_demand_admits_via_sketch(self):
        cache = _cache()
        key = _key(0, 0)
        cache.tier2_probe(key)  # first fleet sighting
        cache.tier2_probe(key)  # second: estimate reaches 2
        assert cache.tier2_offer(key, _block())
        assert key in cache and cache.stats.insertions == 1

    def test_ghost_hit_admits_and_counts(self):
        cache = _cache(blocks=1)
        a, b = _key(0, 0), _key(0, 1)
        _fill(cache, [a])
        _fill(cache, [b])  # evicts a into B1
        assert a not in cache
        cache.tier2_probe(a)
        cache.tier2_probe(a)
        assert cache.tier2_offer(a, _block())
        assert cache.ghost_hits_recency == 1

    def test_admits_plus_rejects_equals_demotions(self):
        cache = _cache(blocks=2)
        for i in range(20):
            key = _key(0, i)
            if i % 3 == 0:
                cache.tier2_probe(key)
                cache.tier2_probe(key)
            cache.tier2_offer(key, _block(i))
        assert cache.stats.insertions + cache.rejects == cache.demotions
        cache.check_invariants()

    def test_probe_hit_and_t1_to_t2_promotion(self):
        cache = _cache()
        key = _key(0, 0)
        _fill(cache, [key])
        assert cache.tier2_probe(key) is not None  # T1 -> T2
        assert cache.stats.hits == 1
        assert cache.tier2_probe(key) is not None  # stays in T2
        assert cache.stats.hits == 2


class TestConservation:
    def test_used_never_exceeds_budget_under_churn(self):
        cache = _cache(blocks=3)
        for i in range(200):
            key = _key(i % 4, i % 37)
            if cache.tier2_probe(key) is None:
                cache.tier2_offer(key, _block(i))
            assert cache.used_bytes <= cache.budget_bytes
            cache.check_invariants()
        assert cache.stats.evictions > 0

    def test_resize_evicts_to_fit(self):
        cache = _cache(blocks=4)
        _fill(cache, [_key(0, i) for i in range(4)])
        assert cache.used_bytes == 4 * BLOCK
        evicted = cache.tier2_resize(2 * BLOCK)
        assert evicted == 2
        assert cache.used_bytes <= cache.budget_bytes == 2 * BLOCK
        cache.check_invariants()

    def test_oversized_block_rejected(self):
        cache = Tier2Cache(BLOCK, 2 * BLOCK)
        key = _key(0, 0)
        cache.tier2_probe(key)
        cache.tier2_probe(key)
        assert not cache.tier2_offer(key, _block())

    def test_resident_reoffer_rejected(self):
        cache = _cache()
        key = _key(0, 0)
        _fill(cache, [key])
        assert not cache.tier2_offer(key, _block())
        assert cache.stats.insertions + cache.rejects == cache.demotions


class TestShardNamespace:
    def test_same_handle_different_shards_do_not_alias(self):
        cache = _cache()
        handle = BlockHandle(sst_id=1, block_no=0)
        a, b = (0, handle), (1, handle)
        _fill(cache, [a])
        assert cache.tier2_probe(b) is None

    def test_drop_shard_purges_resident_and_ghosts(self):
        cache = _cache(blocks=2)
        mine = [_key(0, i) for i in range(4)]  # overflows into ghosts
        theirs = _key(1, 0)
        _fill(cache, mine)
        _fill(cache, [theirs])
        dropped = cache.tier2_drop_shard(0)
        assert dropped >= 1
        assert all(k not in cache for k in mine)
        assert theirs in cache
        assert cache.tier2_probe(mine[0]) is None
        cache.check_invariants()


class TestDeterminism:
    def test_identical_traces_produce_identical_state(self):
        def run():
            cache = _cache(blocks=3, sketch_seed=7)
            log = []
            for i in range(300):
                key = _key(i % 3, (i * 7) % 23)
                hit = cache.tier2_probe(key) is not None
                admitted = False
                if not hit:
                    admitted = cache.tier2_offer(key, _block(i))
                log.append((hit, admitted))
            return log, cache.stats.hits, cache.stats.insertions, cache.ghost_hits

        assert run() == run()

    def test_config_error_on_bad_budget(self):
        with pytest.raises(CacheError):
            Tier2Cache(-1, BLOCK)
        with pytest.raises(CacheError):
            Tier2Cache(BLOCK, 0)
