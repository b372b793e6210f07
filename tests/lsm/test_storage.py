"""Simulated disk: metered reads, lifecycle, listeners."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.lsm.block import BlockHandle
from repro.lsm.sstable import SSTable
from repro.lsm.storage import SimulatedDisk


def installed_table(disk, n=8):
    table = SSTable.build(
        disk.allocate_sst_id(), [f"k{i:03d}" for i in range(n)], ["v"] * n, 4, 0
    )
    disk.install(table)
    return table


class TestLifecycle:
    def test_ids_monotonic(self):
        disk = SimulatedDisk()
        assert disk.allocate_sst_id() < disk.allocate_sst_id()

    def test_install_and_delete(self):
        disk = SimulatedDisk()
        table = installed_table(disk)
        assert disk.has(table.sst_id)
        disk.delete(table.sst_id)
        assert not disk.has(table.sst_id)
        assert disk.sstables_deleted_total == 1

    def test_double_install_rejected(self):
        disk = SimulatedDisk()
        table = installed_table(disk)
        with pytest.raises(StorageError):
            disk.install(table)

    def test_delete_unknown_rejected(self):
        with pytest.raises(StorageError):
            SimulatedDisk().delete(42)


class TestIdempotenceObservability:
    """Lifecycle violations must name the offender and the disk state."""

    def test_double_install_message_names_id_and_live_count(self):
        disk = SimulatedDisk()
        installed_table(disk)
        table = installed_table(disk)
        with pytest.raises(StorageError) as exc:
            disk.install(table)
        message = str(exc.value)
        assert f"sst id {table.sst_id}" in message
        assert "2 tables live" in message

    def test_double_delete_message_names_id_and_live_count(self):
        disk = SimulatedDisk()
        table = installed_table(disk)
        keeper = installed_table(disk)
        disk.delete(table.sst_id)
        with pytest.raises(StorageError) as exc:
            disk.delete(table.sst_id)
        message = str(exc.value)
        assert f"sst id {table.sst_id}" in message
        assert "1 tables live" in message
        assert disk.has(keeper.sst_id)
        assert disk.sstables_deleted_total == 1  # failed delete not counted

    def test_read_of_deleted_sst_names_handle_and_live_count(self):
        disk = SimulatedDisk()
        table = installed_table(disk)
        disk.delete(table.sst_id)
        with pytest.raises(StorageError) as exc:
            disk.read_block(BlockHandle(table.sst_id, 0))
        message = str(exc.value)
        assert str(table.sst_id) in message
        assert "0 tables live" in message
        assert disk.block_reads_total == 0


class TestMeteredReads:
    def test_read_counts(self):
        disk = SimulatedDisk()
        table = installed_table(disk)
        disk.read_block(BlockHandle(table.sst_id, 0))
        disk.read_block(BlockHandle(table.sst_id, 1))
        assert disk.block_reads_total == 2
        assert disk.bytes_read_total == 2 * table.block_size

    def test_read_after_delete_fails(self):
        disk = SimulatedDisk()
        table = installed_table(disk)
        disk.delete(table.sst_id)
        with pytest.raises(StorageError):
            disk.read_block(BlockHandle(table.sst_id, 0))

    def test_total_entries(self):
        disk = SimulatedDisk()
        installed_table(disk, n=8)
        installed_table(disk, n=4)
        assert disk.total_entries() == 12
        assert disk.num_tables == 2
