"""RocksDB-style block cache.

Caches :class:`~repro.lsm.block.DataBlock` objects keyed by
:class:`~repro.lsm.block.BlockHandle` ``(sst_id, block_no)``.  Because
handles embed the SSTable id, compaction output never aliases old
entries — cached blocks of compacted-away files simply stop hitting and
age out, reproducing the invalidation behaviour that motivates the
paper.

The cache is one :class:`~repro.cache.base.BudgetedCache`: LRU in its
value map's own order, or over the eviction policy it is given.  Every
block read from the backing store is admitted.  RocksDB shards its
``LRUCache`` for multi-core lock contention; at simulator scale one
re-entrant lock around each entry point gives the same safety, as in
the Range Cache.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from repro.cache.base import BudgetedCache, EvictionPolicy
from repro.lsm.block import BlockFetch, BlockHandle, DataBlock


class BlockCache(BudgetedCache[BlockHandle, DataBlock]):
    """Byte-budgeted, read-through cache of data blocks.

    Parameters
    ----------
    budget_bytes:
        Capacity.
    block_size:
        Charge per cached block (the paper's 4 KB).
    backing_fetch:
        Where misses are served from (normally ``disk.read_block``).
    policy:
        Eviction policy over block handles; None (the default) is LRU
        in the value map's own order.
    """

    def __init__(
        self,
        budget_bytes: int,
        block_size: int,
        backing_fetch: BlockFetch,
        policy: Optional[EvictionPolicy[BlockHandle]] = None,
    ) -> None:
        super().__init__(budget_bytes, block_size, policy)
        self._backing_fetch = backing_fetch
        self._lock = threading.RLock()

    def set_backing_fetch(self, fetch: BlockFetch) -> None:
        """Rewire where misses are served from (e.g. a shared L2 tier)."""
        self._backing_fetch = fetch

    # -- the read path hook ------------------------------------------------------

    def fetch_through(self, handle: BlockHandle) -> DataBlock:  # hot-path
        """Serve a block read: cache hit, or backing fetch + fill.

        This is what gets installed as the LSM tree's ``block_fetch``.
        The lock is taken once, across the probe, the backing read and
        the fill.  Those call the container's methods, not this class's
        locked :meth:`get` and :meth:`put`, so a read takes the lock
        once and the traced benchmark records one span for it.
        """
        with self._lock:
            block = BudgetedCache.get(self, handle)
            if block is None:
                block = self._backing_fetch(handle)
                BudgetedCache.put(self, handle, block)
        return block

    def get(self, handle: BlockHandle) -> Optional[DataBlock]:
        """Probe without filling on miss."""
        with self._lock:
            return BudgetedCache.get(self, handle)

    def put(self, handle: BlockHandle, block: DataBlock) -> bool:
        """Directly insert a block (prefetch-style fill)."""
        with self._lock:
            return BudgetedCache.put(self, handle, block)

    # -- capacity ------------------------------------------------------

    def resize(self, budget_bytes: int) -> int:
        """Change capacity, evicting to fit; returns evictions made."""
        with self._lock:
            return super().resize(budget_bytes)

    def clear(self) -> None:
        """Invalidate every cached block (e.g. after a crash/restart)."""
        with self._lock:
            super().clear()

    def purge_sst(self, sst_id: int) -> int:
        """Actively drop all cached blocks of one SSTable (optional mode).

        RocksDB leaves dead blocks to age out; this exists to quantify
        that choice in ablations.  Returns blocks dropped.
        """
        with self._lock:
            dead: List[BlockHandle] = [h for h in self._data if h.sst_id == sst_id]
            for handle in dead:
                self.remove(handle)
        return len(dead)

    # -- sanitizer protocol -----------------------------------------------------

    def check_invariants(self) -> None:
        """The container's accounting and policy checks, under the lock."""
        with self._lock:
            super().check_invariants()
