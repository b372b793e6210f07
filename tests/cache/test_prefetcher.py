"""Leaper-style post-compaction prefetching."""

from __future__ import annotations

from repro.cache import prefetcher as prefetcher_module
from repro.cache.block_cache import BlockCache
from repro.cache.prefetcher import CompactionPrefetcher
from repro.lsm.options import BLOCK_SIZE, LSMOptions
from repro.lsm.tree import LSMTree
from repro.workloads.keys import key_of, value_of


def warmed_setup(prefetch: bool, cache_blocks=64):
    opts = LSMOptions(memtable_entries=32, entries_per_sstable=64)
    tree = LSMTree(opts)
    tree.bulk_load((key_of(i), value_of(i)) for i in range(2000))
    cache = BlockCache(cache_blocks * BLOCK_SIZE, BLOCK_SIZE, tree.disk.read_block)
    tree.set_block_fetch(cache.fetch_through)
    prefetcher = CompactionPrefetcher.attach(tree, cache) if prefetch else None
    hot = [key_of(i) for i in range(0, 200, 2)]
    for _ in range(3):
        for key in hot:
            tree.get(key)
    return tree, cache, prefetcher, hot


class TestPrefetcher:
    def test_prefetch_fires_on_compaction(self):
        tree, cache, prefetcher, hot = warmed_setup(prefetch=True)
        # Update churn in the hot range forces compactions over it.
        for i in range(800):
            tree.put(key_of(i % 400), value_of(i % 400, 1))
        assert prefetcher.compactions_seen > 0
        assert prefetcher.prefetched_total > 0

    def test_prefetch_reduces_post_compaction_misses(self):
        results = {}
        for prefetch in (False, True):
            tree, cache, _, hot = warmed_setup(prefetch=prefetch)
            for i in range(800):
                tree.put(key_of(i % 400), value_of(i % 400, 1))
            reads_before = tree.sst_reads_total
            for key in hot:
                tree.get(key)
            results[prefetch] = tree.sst_reads_total - reads_before
        assert results[True] < results[False]

    def test_prefetch_respects_budget_and_cap(self, monkeypatch):
        tree, cache, prefetcher, _ = warmed_setup(prefetch=True, cache_blocks=16)
        monkeypatch.setattr(prefetcher_module, "MAX_BLOCKS_PER_COMPACTION", 4)
        for i in range(600):
            tree.put(key_of(i % 300), value_of(i % 300, 1))
        assert cache.used_bytes <= cache.budget_bytes
        assert prefetcher.prefetched_total <= 4 * prefetcher.compactions_seen

    def test_prefetch_costs_no_metered_reads(self):
        """Prefetched blocks come from the compaction buffer."""
        tree, cache, prefetcher, _ = warmed_setup(prefetch=True)
        reads_before = tree.sst_reads_total
        # Writes to a *cold* range trigger compactions whose read path
        # never touches the metered disk (compaction reads entries
        # directly; prefetch inserts output blocks directly).
        for i in range(300):
            tree.put(key_of(1500 + i % 300), value_of(1500 + i % 300, 1))
        assert tree.sst_reads_total == reads_before

    def test_no_hot_blocks_means_no_prefetch(self):
        opts = LSMOptions(memtable_entries=32, entries_per_sstable=64)
        tree = LSMTree(opts)
        cache = BlockCache(32 * BLOCK_SIZE, BLOCK_SIZE, tree.disk.read_block)
        tree.set_block_fetch(cache.fetch_through)
        prefetcher = CompactionPrefetcher.attach(tree, cache)
        for i in range(500):  # cold writes only: cache is empty
            tree.put(key_of(i), value_of(i))
        assert prefetcher.compactions_seen > 0
        assert prefetcher.prefetched_total == 0
