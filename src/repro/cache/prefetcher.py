"""Leaper-style post-compaction block prefetching.

The paper cites Leaper (VLDB'20) as the block-cache world's answer to
compaction invalidation: after a compaction rewrites files, repopulate
the cache with the new blocks that correspond to previously-hot data.

This implementation piggybacks on the compaction itself, as Leaper
does: when a compaction event fires, the key ranges of the *cached*
blocks belonging to the compaction's inputs are collected, and output
blocks overlapping those ranges are inserted into the block cache
directly from the just-written tables (no metered disk read — the data
was in the compaction buffer moments ago).

Attach with :meth:`CompactionPrefetcher.attach`; an ablation benchmark
(`benchmarks/test_abl_prefetch.py`) quantifies the effect.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cache.block_cache import BlockCache
from repro.lsm.block import BlockHandle
from repro.lsm.compaction import CompactionEvent
from repro.lsm.storage import SimulatedDisk
from repro.lsm.tree import LSMTree

KeyRange = Tuple[str, str]

#: Safety cap so one huge compaction cannot flush the cache with
#: prefetched blocks.
MAX_BLOCKS_PER_COMPACTION = 64


class CompactionPrefetcher:
    """Re-warms the block cache after each compaction.

    Parameters
    ----------
    block_cache:
        The cache to re-warm.
    disk:
        Where the compaction's output tables live.
    """

    def __init__(self, block_cache: BlockCache, disk: SimulatedDisk) -> None:
        self._cache = block_cache
        self._disk = disk
        self.prefetched_total = 0
        self.compactions_seen = 0

    @classmethod
    def attach(cls, tree: LSMTree, block_cache: BlockCache) -> "CompactionPrefetcher":
        """Create a prefetcher and register it on ``tree``'s compactor."""
        prefetcher = cls(block_cache, tree.disk)
        tree.add_compaction_listener(prefetcher.on_compaction)
        return prefetcher

    def _hot_ranges(self, input_sst_ids: List[int]) -> List[KeyRange]:
        """Key ranges of cached blocks that the compaction invalidated."""
        inputs = set(input_sst_ids)
        ranges: List[KeyRange] = []
        for shard in self._cache._shards:
            for handle in list(shard.keys()):
                if handle.sst_id in inputs:
                    block = shard.peek(handle)
                    if block is not None:
                        ranges.append((block.first_key, block.last_key))
        return ranges

    def on_compaction(self, event: CompactionEvent) -> int:
        """Compaction-listener hook; returns blocks prefetched."""
        self.compactions_seen += 1
        hot = self._hot_ranges(event.input_sst_ids)
        if not hot:
            return 0
        prefetched = 0
        for sst_id in event.output_sst_ids:
            table = self._disk.table(sst_id)
            if table is None:
                continue
            for block_no in range(table.num_blocks):
                if prefetched >= MAX_BLOCKS_PER_COMPACTION:
                    break
                block = table.block_at(block_no)
                if any(
                    block.first_key <= hi and block.last_key >= lo
                    for lo, hi in hot
                ):
                    # Direct insert: the block was just written by the
                    # compaction, so no metered disk read is charged.
                    self._cache.put(BlockHandle(sst_id, block_no), block)
                    prefetched += 1
        self.prefetched_total += prefetched
        return prefetched
