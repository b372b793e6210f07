"""RocksDB-style sharded block cache.

Caches :class:`~repro.lsm.block.DataBlock` objects keyed by
:class:`~repro.lsm.block.BlockHandle` ``(sst_id, block_no)``.  Because
handles embed the SSTable id, compaction output never aliases old
entries — cached blocks of compacted-away files simply stop hitting and
age out, reproducing the invalidation behaviour that motivates the
paper.

The cache is sharded by handle hash with a lock per shard, like
RocksDB's ``LRUCache``; every block read from the backing store is
admitted.  A shard is a :class:`~repro.cache.base.BudgetedCache`: LRU in
its value map's own order, or over the policy a ``policy_factory``
builds.  Either way a read is one ``get_or_fill`` call on one shard,
under that shard's lock.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from repro.cache.base import BudgetedCache, CacheBase, CacheStats, EvictionPolicy
from repro.errors import CacheError, InvariantError
from repro.lsm.block import BlockFetch, BlockHandle, DataBlock

PolicyFactory = Callable[[], EvictionPolicy[BlockHandle]]


class BlockCache(CacheBase):
    """Sharded, byte-budgeted cache of data blocks.

    Parameters
    ----------
    budget_bytes:
        Total capacity across shards.
    block_size:
        Charge per cached block (the paper's 4 KB).
    backing_fetch:
        Where misses are served from (normally ``disk.read_block``).
    num_shards:
        Shard count; 1 gives a single lock-free-path cache.
    policy_factory:
        Builds one eviction policy per shard; None (the default) gives
        LRU shards that keep their blocks in recency order.
    """

    def __init__(
        self,
        budget_bytes: int,
        block_size: int,
        backing_fetch: BlockFetch,
        num_shards: int = 1,
        policy_factory: Optional[PolicyFactory] = None,
    ) -> None:
        if num_shards <= 0:
            raise CacheError("num_shards must be positive")
        super().__init__()
        self.block_size = block_size
        self._backing_fetch = backing_fetch
        self._num_shards = num_shards
        per_shard = budget_bytes // num_shards
        self._shards: List[BudgetedCache[BlockHandle, DataBlock]] = [
            BudgetedCache(
                per_shard, block_size, policy_factory() if policy_factory else None
            )
            for _ in range(num_shards)
        ]
        # Give any remainder to shard 0 so budgets sum exactly.
        self._shards[0].resize(budget_bytes - per_shard * (num_shards - 1))
        self._locks = [threading.Lock() for _ in range(num_shards)]

    def _shard_of(self, handle: BlockHandle) -> int:
        return hash(handle) % self._num_shards

    def set_backing_fetch(self, fetch: BlockFetch) -> None:
        """Rewire where misses are served from (e.g. a shared L2 tier)."""
        self._backing_fetch = fetch

    def set_eviction_listener(
        self, listener: Optional[Callable[[BlockHandle, DataBlock], None]]
    ) -> None:
        """Observe every capacity eviction (the L2 demotion feed)."""
        for shard in self._shards:
            shard.on_evict = listener

    # -- the read path hook ------------------------------------------------------

    def fetch_through(self, handle: BlockHandle) -> DataBlock:  # hot-path
        """Serve a block read: cache hit, or backing fetch + fill.

        This is what gets installed as the LSM tree's ``block_fetch``.
        The shard lock is taken once, across the probe, the backing read
        and the fill, which are one ``get_or_fill`` call on the shard.
        """
        idx = hash(handle) % self._num_shards
        with self._locks[idx]:
            block = self._shards[idx].get_or_fill(handle, self._backing_fetch)
        if self._sanitizer is not None:
            self._sanitizer.after_mutation(self)
        return block

    def get(self, handle: BlockHandle) -> Optional[DataBlock]:
        """Probe without filling on miss."""
        idx = self._shard_of(handle)
        with self._locks[idx]:
            return self._shards[idx].get(handle)

    def put(self, handle: BlockHandle, block: DataBlock) -> bool:
        """Directly insert a block (prefetch-style fill)."""
        idx = self._shard_of(handle)
        with self._locks[idx]:
            admitted = self._shards[idx].put(handle, block)
        self._after_mutation()
        return admitted

    def __contains__(self, handle: BlockHandle) -> bool:
        idx = self._shard_of(handle)
        return handle in self._shards[idx]

    # -- capacity ------------------------------------------------------

    @property
    def budget_bytes(self) -> int:
        """Total capacity across shards."""
        return sum(s.budget_bytes for s in self._shards)

    @property
    def used_bytes(self) -> int:
        """Total bytes charged across shards."""
        return sum(s.used_bytes for s in self._shards)

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def resize(self, budget_bytes: int) -> int:
        """Repartition a new total budget across shards, evicting to fit;
        returns the evictions the resize forced."""
        per_shard = budget_bytes // self._num_shards
        remainder = budget_bytes - per_shard * (self._num_shards - 1)
        evicted = 0
        for i, shard in enumerate(self._shards):
            with self._locks[i]:
                evicted += shard.resize(remainder if i == 0 else per_shard)
        self._after_mutation()
        return evicted

    def clear(self) -> None:
        """Invalidate every cached block (e.g. after a crash/restart)."""
        for i, shard in enumerate(self._shards):
            with self._locks[i]:
                shard.clear()

    def purge_sst(self, sst_id: int) -> int:
        """Actively drop all cached blocks of one SSTable (optional mode).

        RocksDB leaves dead blocks to age out; this exists to quantify
        that choice in ablations.  Returns blocks dropped.
        """
        dropped = 0
        for i, shard in enumerate(self._shards):
            with self._locks[i]:
                dead = [h for h in shard.keys() if h.sst_id == sst_id]
                for handle in dead:
                    shard.remove(handle)
                    dropped += 1
        return dropped

    @property
    def stats(self) -> CacheStats:
        """Aggregated stats across shards."""
        total = CacheStats()
        for shard in self._shards:
            s = shard.stats
            total.hits += s.hits
            total.misses += s.misses
            total.insertions += s.insertions
            total.evictions += s.evictions
            total.rejections += s.rejections
            total.invalidations += s.invalidations
        return total

    # -- sanitizer protocol -----------------------------------------------------

    def check_invariants(self) -> None:
        """Per-shard accounting plus handle-to-shard routing consistency."""
        if len(self._shards) != self._num_shards or len(self._locks) != self._num_shards:
            raise InvariantError(
                f"BlockCache shard bookkeeping drift: {len(self._shards)} "
                f"shards / {len(self._locks)} locks for num_shards "
                f"{self._num_shards}"
            )
        for idx, shard in enumerate(self._shards):
            with self._locks[idx]:
                shard.check_invariants()
                for handle in shard.keys():
                    owner = self._shard_of(handle)
                    if owner != idx:
                        raise InvariantError(
                            f"BlockCache misrouted entry: handle {handle!r} "
                            f"lives in shard {idx} but hashes to shard {owner}"
                        )
