"""Simulated disk: SSTable residency and block-read accounting.

The paper measures "SST reads" — the number of data-block reads that
reach the storage device.  :class:`SimulatedDisk` is the single funnel
for those reads: every block fetched by the read path that is not served
by a cache goes through :meth:`read_block` and increments the counters.
Every read verifies the block's checksum.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import CorruptionError, StorageError, TransientIOError
from repro.lsm.block import BlockHandle, DataBlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.lsm.sstable import SSTable


class SimulatedDisk:
    """Stores SSTables and meters every data-block read."""

    def __init__(self) -> None:
        self._tables: Dict[int, "SSTable"] = {}
        self._next_sst_id = 1
        self.block_reads_total = 0
        self.bytes_read_total = 0
        self.sstables_written_total = 0
        self.sstables_deleted_total = 0
        # fault-path accounting (successful reads stay in block_reads_total
        # so cache/hit-rate math is undisturbed by retried attempts)
        self.failed_reads_total = 0
        self.transient_errors_total = 0
        self.corruptions_detected_total = 0
        self.corruption_repairs_total = 0
        self._fault_injector: Optional["FaultInjector"] = None

    def set_fault_injector(self, injector: Optional["FaultInjector"]) -> None:
        """Route every read attempt through ``injector`` (None disables)."""
        self._fault_injector = injector

    # -- SSTable lifecycle -------------------------------------------------

    def allocate_sst_id(self) -> int:
        """Reserve a globally unique SSTable id (monotonically increasing)."""
        sst_id = self._next_sst_id
        self._next_sst_id += 1
        return sst_id

    def install(self, table: "SSTable") -> None:
        """Make a freshly built SSTable readable."""
        if table.sst_id in self._tables:
            raise StorageError(
                f"double install of sst id {table.sst_id} "
                f"({len(self._tables)} tables live)"
            )
        self._tables[table.sst_id] = table
        self.sstables_written_total += 1

    def delete(self, sst_id: int) -> None:
        """Remove an SSTable (after compaction obsoletes it)."""
        if sst_id not in self._tables:
            raise StorageError(
                f"delete of sst id {sst_id} which is not on disk "
                f"({len(self._tables)} tables live)"
            )
        del self._tables[sst_id]
        self.sstables_deleted_total += 1

    def has(self, sst_id: int) -> bool:
        """Whether ``sst_id`` is currently live on disk."""
        return sst_id in self._tables

    def live_sst_ids(self) -> List[int]:
        """Ids of all live SSTables."""
        return list(self._tables)

    # -- metered reads -----------------------------------------------------

    def read_block(self, handle: BlockHandle) -> DataBlock:
        """Fetch a data block from "disk", counting the I/O.

        Raises :class:`TransientIOError` when the fault injector decides
        this attempt fails, and :class:`CorruptionError` when the block's
        payload no longer matches its stored checksum.  Failed attempts
        are counted separately from successful reads.
        """
        table = self._tables.get(handle.sst_id)
        if table is None:
            raise StorageError(
                f"read of block {handle} from deleted/unknown sst "
                f"({len(self._tables)} tables live)"
            )
        if self._fault_injector is not None:
            try:
                self._fault_injector.before_block_read(handle, table)
            except TransientIOError:
                self.failed_reads_total += 1
                self.transient_errors_total += 1
                raise
        block = table.block_at(handle.block_no)
        if not table.verify_block(handle.block_no, block):
            self.failed_reads_total += 1
            self.corruptions_detected_total += 1
            raise CorruptionError(f"checksum mismatch reading block {handle}")
        self.block_reads_total += 1
        self.bytes_read_total += table.block_size
        return block

    def repair_block(self, handle: BlockHandle) -> None:
        """Restore a corrupted block from its redundant clean copy.

        Models fetching the block from a replica (or re-reading the
        next-newer copy of the data): the stored checksum is recomputed
        from the intact payload, after which reads succeed again.
        """
        table = self._tables.get(handle.sst_id)
        if table is None:
            raise StorageError(
                f"cannot repair block {handle}: sst not live "
                f"({len(self._tables)} tables live)"
            )
        table.repair_block(handle.block_no)
        self.corruption_repairs_total += 1

    # -- introspection -----------------------------------------------------

    def table(self, sst_id: int) -> Optional["SSTable"]:
        """The live SSTable with ``sst_id``, or None."""
        return self._tables.get(sst_id)

    @property
    def num_tables(self) -> int:
        """Number of live SSTables."""
        return len(self._tables)

    def total_entries(self) -> int:
        """Total entries across live SSTables (tombstones included)."""
        return sum(t.num_entries for t in self._tables.values())
