"""Block cache: fetch-through, sharding, compaction decay, admission hook."""

from __future__ import annotations

import pytest

from repro.cache.block_cache import BlockCache
from repro.errors import CacheError
from repro.lsm.block import BlockHandle
from repro.lsm.options import BLOCK_SIZE, LSMOptions
from repro.lsm.tree import LSMTree
from repro.workloads.keys import key_of, value_of


def tree_with_cache(budget_blocks=8, num_shards=1, num_keys=500):
    opts = LSMOptions(memtable_entries=32, entries_per_sstable=64)
    tree = LSMTree(opts)
    tree.bulk_load((key_of(i), value_of(i)) for i in range(num_keys))
    cache = BlockCache(
        budget_blocks * BLOCK_SIZE,
        block_size=BLOCK_SIZE,
        backing_fetch=tree.disk.read_block,
        num_shards=num_shards,
    )
    tree.set_block_fetch(cache.fetch_through)
    return tree, cache


class TestFetchThrough:
    def test_second_read_is_a_hit(self):
        tree, cache = tree_with_cache()
        tree.get(key_of(100))
        reads = tree.sst_reads_total
        tree.get(key_of(100))
        assert tree.sst_reads_total == reads  # served from cache
        assert cache.stats.hits >= 1

    def test_budget_respected(self):
        tree, cache = tree_with_cache(budget_blocks=4)
        for i in range(0, 500, 10):
            tree.get(key_of(i))
        assert cache.used_bytes <= cache.budget_bytes
        assert len(cache) <= 4

    def test_direct_put_and_get(self):
        tree, cache = tree_with_cache()
        table = tree.levels.all_files()[0]
        handle = BlockHandle(table.sst_id, 0)
        block = tree.disk.read_block(handle)
        assert cache.put(handle, block)
        assert cache.get(handle) is block
        assert handle in cache


class TestCompactionDecay:
    def test_compacted_blocks_stop_hitting(self):
        tree, cache = tree_with_cache(budget_blocks=64)
        for i in range(0, 500, 5):
            tree.get(key_of(i))
        cached_before = {h.sst_id for h in cache._shards[0].keys()}
        # Heavy updates force compactions that rewrite most files.
        for i in range(1500):
            tree.put(key_of(i % 500), value_of(i % 500, 1))
        live = set(tree.disk.live_sst_ids())
        dead_cached = cached_before - live
        assert dead_cached  # some cached files were compacted away

    def test_purge_sst(self):
        tree, cache = tree_with_cache(budget_blocks=64)
        tree.get(key_of(100))
        sst_ids = {h.sst_id for h in cache._shards[0].keys()}
        assert sst_ids
        victim = next(iter(sst_ids))
        dropped = cache.purge_sst(victim)
        assert dropped >= 1
        assert all(h.sst_id != victim for h in cache._shards[0].keys())


class TestSharding:
    def test_shard_budgets_sum_to_total(self):
        tree, cache = tree_with_cache(budget_blocks=7, num_shards=3)
        assert cache.budget_bytes == 7 * BLOCK_SIZE

    def test_sharded_operation(self):
        tree, cache = tree_with_cache(budget_blocks=16, num_shards=4)
        for i in range(0, 500, 7):
            tree.get(key_of(i))
        assert cache.used_bytes <= cache.budget_bytes
        assert cache.stats.lookups > 0

    def test_resize_repartitions(self):
        tree, cache = tree_with_cache(budget_blocks=16, num_shards=4)
        for i in range(0, 500, 7):
            tree.get(key_of(i))
        cache.resize(4 * BLOCK_SIZE)
        assert cache.budget_bytes == 4 * BLOCK_SIZE
        assert cache.used_bytes <= cache.budget_bytes

    def test_invalid_shard_count(self):
        with pytest.raises(CacheError):
            BlockCache(1024, 256, lambda h: None, num_shards=0)

    def test_occupancy(self):
        tree, cache = tree_with_cache(budget_blocks=8)
        assert cache.occupancy == 0.0
        tree.get(key_of(0))
        assert cache.occupancy > 0.0
