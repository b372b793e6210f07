"""Serve-side ownership of the fleet-shared second cache tier.

The shared :class:`~repro.cache.tier2.Tier2Cache` is the first genuinely
fleet-shared mutable state in the system, so it gets an explicit
ownership story: a single :class:`Tier2Coordinator` (a
:class:`~repro.serve.base.ServeComponent`) owns the cache, and every
mutation flows through it from inside the serving event loop — shard
engines execute synchronously in loop callbacks, so probes and
demotions are totally ordered by the loop and two same-seed runs replay
them identically.  Lint rule OWN004 flags a call to the cache's
``tier2_*`` mutators from any file but this one and the cache's own
(both ``tier2.py``).

Per shard, a :class:`Tier2Client` is spliced into the block read path
beneath L1:

* engines **with** a block cache keep their L1 exactly as-is; the
  client becomes the block cache's backing fetch (L1 miss -> L2 probe
  -> disk) and its capacity-eviction listener (L1 demotion -> filtered
  L2 admission).  PR 9's batched paths coalesce through
  ``LSMTree.fetch_block`` and therefore through this same hook — the
  vectorized fast path stays vectorized.
* engines **without** a block cache (the range strategies fetch
  straight from disk) get the client as the tree's block fetch; with no
  L1 victims to demote, admission happens on fill, still gated by the
  same double-hit filter.

The client also carries the per-shard probe/hit counters the sim clock
charges (an L2 hit costs more than an L1 hit, far less than a disk
read) and the per-shard flow counters the engine folds into its obs
windows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cache.tier2 import Tier2Cache
from repro.errors import ConfigError
from repro.lsm.block import BlockHandle, DataBlock
from repro.serve.base import ServeComponent

if TYPE_CHECKING:  # engine imports nothing from here; avoid cycles anyway
    from repro.core.engine import KVEngine


class Tier2Coordinator(ServeComponent):
    """Single owner of the shared L2 cache for one serving fleet.

    Parameters
    ----------
    budget_bytes:
        The shared tier's starting byte budget (the arbiter may move
        it later).
    block_size:
        Charge per cached block; must match the shard trees'.
    sketch_seed:
        Salt for the admission sketch (derived from the run seed).
    """

    def __init__(
        self, budget_bytes: int, block_size: int, sketch_seed: int = 0
    ) -> None:
        super().__init__()
        if budget_bytes <= 0:
            raise ConfigError("tier2 budget_bytes must be positive")
        self.cache = Tier2Cache(
            budget_bytes, block_size, sketch_seed=sketch_seed
        )

    # -- the only mutation surface (OWN004 owner) --------------------------

    def probe(self, shard_id: int, handle: BlockHandle) -> Optional[DataBlock]:  # hot-path
        """One shard's L1-miss lookup against the shared tier."""
        return self.cache.tier2_probe((shard_id, handle))

    def offer(self, shard_id: int, handle: BlockHandle, block: DataBlock) -> bool:
        """One shard's L1 demotion; returns whether L2 admitted it."""
        return self.cache.tier2_offer((shard_id, handle), block)

    def set_budget(self, budget_bytes: int) -> int:
        """Arbiter entry point: move the shared budget; returns evictions."""
        evicted = self.cache.tier2_resize(budget_bytes)
        self._after_mutation()
        return evicted

    def drop_shard(self, shard_id: int) -> int:
        """Purge a replaced shard's namespace (replica promotion)."""
        return self.cache.tier2_drop_shard(shard_id)

    # -- read-only surface --------------------------------------------------

    @property
    def budget_bytes(self) -> int:
        """Current shared-tier capacity."""
        return self.cache.budget_bytes

    @property
    def used_bytes(self) -> int:
        """Bytes resident in the shared tier."""
        return self.cache.used_bytes

    @property
    def reuse_signal(self) -> int:
        """Hits + ghost hits: the arbiter's L2 marginal-utility signal."""
        return self.cache.reuse_signal

    def attach(self, shard_id: int, engine: "KVEngine") -> "Tier2Client":
        """Splice a client for ``shard_id`` under ``engine``'s L1.

        Rewires the engine's block read path as described in the module
        docstring and registers the client on the engine (for sim-clock
        capture and per-shard obs window folding).
        """
        block_cache = engine.block_cache
        client = Tier2Client(
            self,
            shard_id,
            engine.tree.disk.read_block,
            admit_on_fill=block_cache is None,
        )
        if block_cache is not None:
            block_cache.set_backing_fetch(client.fetch_through)
            block_cache.set_eviction_listener(client.on_demote)
        else:
            engine.tree.set_block_fetch(client.fetch_through)
        engine.tier2_client = client
        return client

    # -- sanitizer protocol -------------------------------------------------

    def check_invariants(self) -> None:
        """Delegate to the shared cache's conservation checks."""
        self.cache.check_invariants()


class Tier2Client:
    """One shard's hook into the shared tier (counters live here).

    The client holds no cached state of its own — only the shard id
    namespace, the disk fetch it shields, and per-shard counters; all
    cache mutation goes through the coordinator.
    """

    __slots__ = (
        "_coordinator",
        "shard_id",
        "_disk_fetch",
        "_admit_on_fill",
        "probes",
        "hits",
        "demotions",
        "admits",
    )

    def __init__(
        self,
        coordinator: Tier2Coordinator,
        shard_id: int,
        disk_fetch,
        admit_on_fill: bool = False,
    ) -> None:
        self._coordinator = coordinator
        self.shard_id = shard_id
        self._disk_fetch = disk_fetch
        self._admit_on_fill = admit_on_fill
        self.probes = 0
        self.hits = 0
        self.demotions = 0
        self.admits = 0

    def fetch_through(self, handle: BlockHandle) -> DataBlock:  # hot-path
        """Serve an L1 miss: shared-L2 probe, then disk."""
        self.probes += 1
        block = self._coordinator.probe(self.shard_id, handle)
        if block is not None:
            self.hits += 1
            return block
        block = self._disk_fetch(handle)
        if self._admit_on_fill:
            # No L1 block cache above us: demand-fill admission, same
            # double-hit filter as the demotion path.
            self.demotions += 1
            if self._coordinator.offer(self.shard_id, handle, block):
                self.admits += 1
        return block

    def on_demote(self, handle: BlockHandle, block: DataBlock) -> None:
        """L1 capacity eviction: offer the victim to the shared tier."""
        self.demotions += 1
        if self._coordinator.offer(self.shard_id, handle, block):
            self.admits += 1
