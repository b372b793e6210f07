"""LSMTree facade: reads, writes, scans, stalls, bulk loading."""

from __future__ import annotations

import pytest

from repro.errors import StorageError, WriteStallError
from repro.lsm.options import LSMOptions
from repro.lsm.tree import LSMTree
from repro.workloads.keys import key_of, value_of


class TestReadWrite:
    def test_put_get_roundtrip(self, tree):
        tree.put("a", "1")
        assert tree.get("a") == "1"

    def test_get_absent(self, tree):
        assert tree.get("nope") is None

    def test_delete_shadows_older_value(self, tree):
        tree.put("a", "1")
        tree.flush()
        tree.delete("a")
        assert tree.get("a") is None

    def test_overwrite_across_flushes(self, tree):
        tree.put("a", "old")
        tree.flush()
        tree.put("a", "new")
        assert tree.get("a") == "new"

    def test_get_reads_through_levels(self, seeded_tree):
        for i in range(0, 2000, 113):
            assert seeded_tree.get(key_of(i)) == value_of(i)

    def test_memtable_vs_sstable_split_paths(self, tree):
        tree.put("mem", "1")
        assert tree.get_from_memtable("mem") == (True, "1")
        assert tree.get_from_sstables("mem") is None
        tree.flush()
        assert tree.get_from_memtable("mem") == (False, None)
        assert tree.get_from_sstables("mem") == "1"

    def test_get_from_sstables_with_origin_names_the_serving_block(
        self, seeded_tree
    ):
        value, origin = seeded_tree.get_from_sstables_with_origin(key_of(5))
        assert value == value_of(5) and origin is not None
        assert seeded_tree.disk.has(origin.sst_id)
        reads = seeded_tree.disk.block_reads_total
        block = seeded_tree.disk.read_block(origin)
        assert seeded_tree.disk.block_reads_total == reads + 1
        assert block.get(key_of(5)) == (True, value_of(5))
        assert seeded_tree.get_from_sstables_with_origin("zz-absent") == (
            None,
            None,
        )


class TestScans:
    def test_scan_merges_levels_and_memtable(self, seeded_tree):
        seeded_tree.put(key_of(1000), "fresh")
        result = seeded_tree.scan(key_of(999), 3)
        assert result == [
            (key_of(999), value_of(999)),
            (key_of(1000), "fresh"),
            (key_of(1001), value_of(1001)),
        ]

    def test_scan_skips_deleted(self, seeded_tree):
        seeded_tree.delete(key_of(501))
        result = seeded_tree.scan(key_of(500), 3)
        assert [k for k, _ in result] == [key_of(500), key_of(502), key_of(503)]

    def test_scan_past_end_truncated(self, seeded_tree):
        result = seeded_tree.scan(key_of(1998), 10)
        assert [k for k, _ in result] == [key_of(1998), key_of(1999)]

    def test_scan_counts_disk_reads(self, seeded_tree):
        before = seeded_tree.sst_reads_total
        seeded_tree.scan(key_of(100), 16)
        assert seeded_tree.sst_reads_total > before

    def test_scan_seek_touches_each_overlapping_run(self, small_opts):
        tree = LSMTree(small_opts)
        tree.bulk_load((key_of(i), value_of(i)) for i in range(500))
        runs_before = tree.num_sorted_runs
        reads_before = tree.sst_reads_total
        tree.scan(key_of(100), 4)
        reads = tree.sst_reads_total - reads_before
        # At least one block per run that overlaps; at most a few extra.
        assert reads >= 1
        assert reads <= runs_before + (4 // small_opts.entries_per_block) + 2


class TestStalls:
    def test_write_stall_raises_without_auto_compact(self):
        opts = LSMOptions(
            memtable_entries=8,
            entries_per_sstable=16,
            auto_compact=False,
            level0_file_num_compaction_trigger=2,
            level0_slowdown_writes_trigger=2,
            level0_stop_writes_trigger=3,
        )
        tree = LSMTree(opts)
        with pytest.raises(WriteStallError):
            for i in range(200):
                tree.put(key_of(i), "v")

    def test_slowdowns_counted(self):
        opts = LSMOptions(memtable_entries=8, entries_per_sstable=16)
        tree = LSMTree(opts)
        for i in range(400):
            tree.put(key_of(i), "v")
        assert tree.write_slowdowns_total >= 0  # counter exists and is sane


class TestBulkLoad:
    def test_bulk_load_roundtrip(self, small_opts):
        tree = LSMTree(small_opts)
        tree.bulk_load((key_of(i), value_of(i)) for i in range(3000))
        assert tree.get(key_of(1500)) == value_of(1500)
        assert [k for k, _ in tree.scan(key_of(0), 3)] == [
            key_of(0),
            key_of(1),
            key_of(2),
        ]

    def test_bulk_load_spreads_levels(self, small_opts):
        tree = LSMTree(small_opts)
        tree.bulk_load((key_of(i), value_of(i)) for i in range(3000))
        assert tree.num_levels >= 2

    def test_bulk_load_requires_empty(self, small_opts):
        tree = LSMTree(small_opts)
        tree.put("a", "1")
        with pytest.raises(StorageError):
            tree.bulk_load([("b", "2")])

    def test_bulk_load_requires_sorted_unique(self, small_opts):
        tree = LSMTree(small_opts)
        with pytest.raises(StorageError):
            tree.bulk_load([("b", "1"), ("a", "2")])
        tree2 = LSMTree(small_opts)
        with pytest.raises(StorageError):
            tree2.bulk_load([("a", "1"), ("a", "2")])


class TestLifecycle:
    def test_wal_protocol(self, tree):
        tree.put("a", "1")
        assert tree.wal.appends_total == 1
        assert len(tree.wal) == 1
        tree.flush()
        assert len(tree.wal) == 0  # truncated with the flush
