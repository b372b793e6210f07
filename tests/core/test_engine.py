"""KVEngine: query handling path, cache fill path, window sealing."""

from __future__ import annotations

import pytest

from repro.cache.admission import FrequencyAdmission, PartialScanAdmission
from repro.cache.block_cache import BlockCache
from repro.cache.kv_cache import KVCache
from repro.cache.range_cache import RangeCache
from repro.cache.sketch import CountMinSketch
from repro.core.engine import KVEngine
from repro.lsm.options import BLOCK_SIZE, LSMOptions
from repro.lsm.tree import LSMTree
from repro.workloads.keys import key_of, value_of


def seeded(num_keys=1000):
    opts = LSMOptions(memtable_entries=32, entries_per_sstable=64)
    tree = LSMTree(opts)
    tree.bulk_load((key_of(i), value_of(i)) for i in range(num_keys))
    return tree


def engine_with(tree, block_blocks=0, range_entries=0, kv_entries=0, **kw):
    block = (
        BlockCache(block_blocks * BLOCK_SIZE, BLOCK_SIZE, tree.disk.read_block)
        if block_blocks
        else None
    )
    range_ = (
        RangeCache(range_entries * 1024, entry_charge=1024) if range_entries else None
    )
    kv = KVCache(kv_entries * 1024, entry_charge=1024) if kv_entries else None
    return KVEngine(tree, block_cache=block, range_cache=range_, kv_cache=kv, **kw)


class TestQueryHandlingPath:
    def test_range_cache_consulted_first(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=64)
        engine.get(key_of(10))  # miss -> fills range cache
        reads = tree.sst_reads_total
        assert engine.get(key_of(10)) == value_of(10)
        assert tree.sst_reads_total == reads  # no disk I/O on the hit
        assert engine.collector.totals().range_point_hits == 1

    def test_memtable_served_before_sstables(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=64)
        engine.put(key_of(2000), "fresh")  # memtable only
        reads = tree.sst_reads_total
        assert engine.get(key_of(2000)) == "fresh"
        assert tree.sst_reads_total == reads

    def test_block_cache_serves_repeat_reads(self):
        tree = seeded()
        engine = engine_with(tree, block_blocks=32)
        engine.get(key_of(10))
        reads = tree.sst_reads_total
        engine.get(key_of(10))
        assert tree.sst_reads_total == reads

    def test_memtable_results_not_admitted_to_range_cache(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=64)
        engine.put(key_of(3000), "memonly")
        engine.get(key_of(3000))
        # Served from the memtable; there is nothing to cache.
        assert key_of(3000) not in engine.range_cache

    def test_absent_key_returns_none_and_is_not_cached(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=64, kv_entries=64)
        assert engine.get("key" + "9" * 21) is None
        assert len(engine.range_cache) == 0
        assert len(engine.kv_cache) == 0


class TestScanPath:
    def test_scan_fills_and_hits_range_cache(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=64)
        first = engine.scan(key_of(100), 8)
        reads = tree.sst_reads_total
        second = engine.scan(key_of(100), 8)
        assert first == second
        assert tree.sst_reads_total == reads
        assert engine.collector.totals().range_scan_hits == 1

    def test_scan_results_correct_under_cache(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=256)
        expected = [(key_of(i), value_of(i)) for i in range(50, 58)]
        assert engine.scan(key_of(50), 8) == expected
        assert engine.scan(key_of(50), 8) == expected  # cached copy

    def test_partial_admission_respected(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=256)
        engine.scan_admission = PartialScanAdmission(a=4, b=0.0)
        engine.scan(key_of(100), 16)
        assert len(engine.range_cache) == 0  # b=0 admits nothing past a
        assert engine.range_cache.stats.rejections >= 1

    def test_kv_cache_never_serves_scans(self):
        tree = seeded()
        engine = engine_with(tree, kv_entries=64)
        engine.scan(key_of(10), 4)
        reads = tree.sst_reads_total
        engine.scan(key_of(10), 4)
        assert tree.sst_reads_total > reads  # scans always go to the tree


class TestFrequencyAdmissionPath:
    def test_threshold_blocks_cold_point_fills(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=64)
        sketch = CountMinSketch(width=512, depth=4, seed=1)
        engine.freq_admission = FrequencyAdmission(sketch, threshold=0.9)
        for i in range(10):
            engine.get(key_of(i))
        assert len(engine.range_cache) <= 1  # almost everything rejected

    def test_zero_threshold_admits(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=64)
        engine.freq_admission = FrequencyAdmission(
            CountMinSketch(width=512, depth=4, seed=1), threshold=0.0
        )
        engine.get(key_of(1))
        assert key_of(1) in engine.range_cache


class TestWriteCoherence:
    def test_put_updates_cached_value(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=64, kv_entries=64)
        engine.get(key_of(5))
        engine.put(key_of(5), "updated")
        assert engine.get(key_of(5)) == "updated"

    def test_delete_removes_from_caches(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=64, kv_entries=64)
        engine.get(key_of(5))
        engine.delete(key_of(5))
        assert engine.get(key_of(5)) is None

    def test_scan_after_overwrite_returns_new_value(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=256)
        engine.scan(key_of(10), 4)
        engine.put(key_of(11), "v-new")
        result = engine.scan(key_of(10), 4)
        assert (key_of(11), "v-new") in result

    def test_scan_after_delete_skips_key(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=256)
        engine.scan(key_of(10), 4)
        engine.delete(key_of(11))
        result = engine.scan(key_of(10), 4)
        assert key_of(11) not in [k for k, _ in result]
        assert [k for k, _ in result][:2] == [key_of(10), key_of(12)]


class TestWindows:
    def test_window_sealed_every_n_ops(self):
        tree = seeded()
        windows = []
        engine = engine_with(tree, range_entries=64, window_size=10)
        engine.on_window = windows.append
        for i in range(35):
            engine.get(key_of(i))
        assert len(engine.windows) == 3
        assert windows == engine.windows
        assert all(w.ops == 10 for w in windows)

    def test_io_miss_is_windowed_delta(self):
        tree = seeded()
        engine = engine_with(tree, block_blocks=512, window_size=10)
        for i in range(20):
            engine.get(key_of(i % 3))  # mostly hits after warmup
        first, second = engine.windows
        assert first.io_miss >= second.io_miss
        assert second.io_miss < 10

    def test_flush_window_seals_partial(self):
        tree = seeded()
        engine = engine_with(tree, range_entries=64, window_size=1000)
        engine.get(key_of(1))
        window = engine.flush_window()
        assert window is not None and window.ops == 1
        assert engine.flush_window() is None

    def test_current_range_ratio(self):
        tree = seeded()
        block = BlockCache(3 * BLOCK_SIZE, BLOCK_SIZE, tree.disk.read_block)
        range_ = RangeCache(1 * BLOCK_SIZE, entry_charge=1024)
        engine = KVEngine(tree, block_cache=block, range_cache=range_)
        assert engine.current_range_ratio == pytest.approx(0.25)
