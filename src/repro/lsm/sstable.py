"""Immutable sorted string tables (SSTables).

An SSTable packs a sorted run, given as parallel key and value columns,
into fixed-fanout data blocks and carries two auxiliary structures that
the read path consults *without* disk I/O, mirroring RocksDB's pinned
index/filter blocks:

* an index of each block's first key, for binary-searching the block
  that may contain a lookup key, and
* a bloom filter over all keys, for skipping the file entirely on point
  lookups of absent keys.

The read path materialises blocks only through :class:`~repro.lsm.
storage.SimulatedDisk.read_block` (or a block cache in front of it), so
every read-path block access is metered; compaction reads its input
files' :attr:`SSTable.blocks` directly, as a merge reads whole files.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence

from repro.errors import StorageError
from repro.lsm.block import BlockHandle, DataBlock
from repro.lsm.bloom import BloomFilter
from repro.lsm.options import BLOCK_SIZE, BLOOM_BITS_PER_KEY


class SSTable:
    """One immutable sorted run file.

    Build via :meth:`build`; keys must be sorted and free of duplicates
    (the compaction/flush machinery guarantees this).
    """

    def __init__(
        self,
        sst_id: int,
        blocks: Sequence[DataBlock],
        bloom: BloomFilter,
    ) -> None:
        if not blocks:
            raise StorageError("SSTable must contain at least one block")
        self.sst_id = sst_id
        #: The data blocks in key order (read-only; compaction input).
        self.blocks: List[DataBlock] = list(blocks)
        self._index: List[str] = [b.first_key for b in self.blocks]
        # Expected per-block checksums, recorded at build time exactly like
        # the footer checksums RocksDB writes; fault injection tampers with
        # the stored copy to model on-disk bit rot.
        self._checksums: List[int] = [b.checksum for b in self.blocks]
        self.bloom = bloom
        self.block_size = BLOCK_SIZE
        self.num_entries = sum(len(b) for b in self.blocks)
        # Eager key-range bounds: the file is immutable and every point
        # lookup reads them, so plain attributes beat per-call properties.
        self.first_key: str = self.blocks[0].first_key
        self.last_key: str = self.blocks[-1].last_key
        #: Prebuilt handles by block number (read-only): the read paths
        #: fetch through these instead of constructing a BlockHandle per
        #: probe/scan step.
        self.block_handles: List[BlockHandle] = [b.handle for b in self.blocks]

    @classmethod
    def build(
        cls,
        sst_id: int,
        keys: List[str],
        values: List[Optional[str]],
        entries_per_block: int,
        bloom_seed: int,
    ) -> "SSTable":
        """Pack the sorted ``keys`` and their ``values`` into blocks of
        ``entries_per_block`` and build the filter/index."""
        if not keys:
            raise StorageError("cannot build an empty SSTable")
        blocks = [
            DataBlock(
                BlockHandle(sst_id, block_no),
                keys[start : start + entries_per_block],
                values[start : start + entries_per_block],
            )
            for block_no, start in enumerate(range(0, len(keys), entries_per_block))
        ]
        bloom = BloomFilter.build(
            keys, bits_per_key=BLOOM_BITS_PER_KEY, seed=bloom_seed ^ sst_id
        )
        return cls(sst_id, blocks, bloom)

    # -- metadata (no I/O) ---------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Number of data blocks."""
        return len(self.blocks)

    def find_block_no(self, key: str) -> Optional[int]:  # hot-path
        """Index lookup: the block that may contain ``key``, or None.

        Returns None when ``key`` sorts before the file's first key or
        after its last key.
        """
        if key < self.first_key or key > self.last_key:
            return None
        idx = bisect.bisect_right(self._index, key) - 1
        return max(idx, 0)

    def first_block_no_for(self, key: str) -> Optional[int]:  # hot-path
        """Block where a scan starting at ``key`` should begin, or None if
        all entries sort before ``key``."""
        if key > self.last_key:
            return None
        idx = bisect.bisect_right(self._index, key) - 1
        return max(idx, 0)

    # -- direct block access (used only by the metered disk) -----------------

    def block_at(self, block_no: int) -> DataBlock:
        """The block at position ``block_no``; raises on bad index."""
        if not 0 <= block_no < len(self.blocks):
            raise StorageError(
                f"block {block_no} out of range for sst {self.sst_id} "
                f"({len(self.blocks)} blocks)"
            )
        return self.blocks[block_no]

    # -- checksums / corruption ----------------------------------------------

    def verify_block(self, block_no: int, block: Optional[DataBlock] = None) -> bool:
        """Whether the block's payload still matches its stored checksum.

        ``block`` is that block when the caller already holds it (the
        metered read path), which saves looking it up again.
        """
        if block is None:
            block = self.block_at(block_no)
        return self._checksums[block_no] == block.checksum

    def is_block_corrupt(self, block_no: int) -> bool:
        """Inverse of :meth:`verify_block` (fault-injection bookkeeping)."""
        return not self.verify_block(block_no)

    def corrupt_block(self, block_no: int) -> None:
        """Tamper with one block's stored checksum (models bit rot).

        The payload object itself is left untouched so clean copies held
        by caches stay clean — exactly the redundancy a repair draws on.
        """
        self.block_at(block_no)  # range check
        self._checksums[block_no] ^= 0xFFFFFFFF

    def repair_block(self, block_no: int) -> None:
        """Restore the stored checksum from the payload (replica restore)."""
        self._checksums[block_no] = self.block_at(block_no).checksum

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SSTable(id={self.sst_id}, [{self.first_key}..{self.last_key}], "
            f"entries={self.num_entries}, blocks={self.num_blocks})"
        )
