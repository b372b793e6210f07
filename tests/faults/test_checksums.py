"""Block checksums: corruption detection, repair, and disk accounting."""

from __future__ import annotations

import pytest

from repro.errors import CorruptionError, StorageError
from repro.lsm.block import BlockHandle, DataBlock
from repro.lsm.sstable import SSTable
from repro.lsm.storage import SimulatedDisk


def _table(sst_id: int = 1, n: int = 8) -> SSTable:
    keys = [f"k{i:04d}" for i in range(n)]
    return SSTable.build(sst_id, keys, [f"v{i}" for i in range(n)], 4, 0)


class TestBlockChecksum:
    def test_stable_across_calls(self):
        block = DataBlock(BlockHandle(1, 0), ["a", "b"], ["1", "2"])
        assert block.checksum == block.checksum

    def test_depends_on_payload(self):
        a = DataBlock(BlockHandle(1, 0), ["a", "b"], ["1", "2"])
        b = DataBlock(BlockHandle(1, 0), ["a", "b"], ["1", "3"])
        assert a.checksum != b.checksum

    def test_tombstone_distinct_from_empty_value(self):
        dead = DataBlock(BlockHandle(1, 0), ["a"], [None])
        empty = DataBlock(BlockHandle(1, 0), ["a"], [""])
        # None and "" must not collide in the serialized payload.
        assert dead.checksum != empty.checksum


class TestSSTableChecksums:
    def test_fresh_table_verifies(self):
        table = _table()
        for block_no in range(table.num_blocks):
            assert table.verify_block(block_no)
            assert not table.is_block_corrupt(block_no)

    def test_corrupt_then_repair(self):
        table = _table()
        table.corrupt_block(0)
        assert table.is_block_corrupt(0)
        assert table.verify_block(1)  # other blocks untouched
        table.repair_block(0)
        assert table.verify_block(0)

    def test_corrupt_leaves_payload_clean(self):
        """Corruption tampers the stored checksum, not the data — cached
        clean copies of the block must remain trustworthy."""
        table = _table()
        block = table.block_at(0)
        before = (list(block.keys), list(block.values))
        table.corrupt_block(0)
        assert (block.keys, block.values) == before
        assert table.block_at(0) is block

    def test_corrupt_out_of_range_raises(self):
        table = _table()
        with pytest.raises(StorageError):
            table.corrupt_block(99)


class TestDiskVerification:
    def test_read_of_corrupt_block_raises(self):
        disk = SimulatedDisk()
        table = _table()
        disk.install(table)
        table.corrupt_block(0)
        with pytest.raises(CorruptionError):
            disk.read_block(BlockHandle(1, 0))
        assert disk.corruptions_detected_total == 1
        assert disk.failed_reads_total == 1
        # Failed attempts never count as successful reads.
        assert disk.block_reads_total == 0

    def test_repair_restores_reads(self):
        disk = SimulatedDisk()
        table = _table()
        disk.install(table)
        table.corrupt_block(0)
        disk.repair_block(BlockHandle(1, 0))
        block = disk.read_block(BlockHandle(1, 0))
        assert block.get("k0000") == (True, "v0")
        assert disk.corruption_repairs_total == 1
        assert disk.block_reads_total == 1

    def test_repair_of_unknown_sst_raises(self):
        disk = SimulatedDisk()
        with pytest.raises(StorageError):
            disk.repair_block(BlockHandle(42, 0))
