"""Serve-side ownership of the fleet-shared second cache tier.

The shared :class:`~repro.cache.tier2.Tier2Cache` is the first genuinely
fleet-shared mutable state in the system, so it gets an explicit
ownership story: a single :class:`Tier2Coordinator` (a
:class:`~repro.sanitize.Sanitized` structure that checks its own
invariants) owns the cache, and every mutation flows through it from
inside the serving event loop — shard engines execute synchronously in
loop callbacks, so probes and demotions are totally ordered by the loop
and two same-seed runs replay them identically.  Lint rule OWN004
flags a call to the cache's ``tier2_*`` mutators from any file but this
one and the cache's own (both ``tier2.py``).

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

In a serving run the coordinator also keeps the tier's fleet-level
books: the ``l2split``/``l2drop`` trace records, the ghost-hit and
eviction deltas it folds onto shard 0's obs recorder, and the ``l2_*``
fields, fingerprint fragment and report lines of the run's result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro import sanitize
from repro.cache.tier2 import Tier2Cache
from repro.errors import ConfigError
from repro.lsm.block import BlockHandle, DataBlock
from repro.lsm.options import BLOCK_SIZE
from repro.obs import names as N

if TYPE_CHECKING:  # engine imports nothing from here; avoid cycles anyway
    from repro.core.engine import KVEngine
    from repro.obs.recorder import ObsRecorder
    from repro.serve.arbiter import BudgetArbiter
    from repro.serve.result import ServeResult
    from repro.serve.simulator import ServeConfig, _Shard

#: The simulation's trace writer: ``emit(kind, *fields)``.
Emit = Callable[..., None]


class Tier2Coordinator(sanitize.Sanitized):
    """Single owner of the shared L2 cache for one serving fleet.

    Parameters
    ----------
    budget_bytes:
        The shared tier's starting byte budget (the arbiter may move
        it later).
    sketch_seed:
        Salt for the admission sketch (derived from the run seed).
    fleet_bytes:
        The fleet's whole cache budget (L1s plus this tier), the
        denominator of the reported L2 share.
    """

    def __init__(
        self,
        budget_bytes: int,
        sketch_seed: int = 0,
        fleet_bytes: int = 0,
    ) -> None:
        if budget_bytes <= 0:
            raise ConfigError("tier2 budget_bytes must be positive")
        super().__init__()
        self.cache = Tier2Cache(budget_bytes, BLOCK_SIZE, sketch_seed=sketch_seed)
        self.fleet_bytes = fleet_bytes
        #: Ghost hits (recency, frequency) and evictions already folded
        #: onto the obs recorder.
        self._obs_mark: Tuple[int, int, int] = (0, 0, 0)

    @classmethod
    def for_fleet(
        cls, config: "ServeConfig", shards: Sequence["_Shard"]
    ) -> "Tier2Coordinator":
        """One shared tier under every shard, its budget the carve-out
        the shards' L1 pool already excludes."""
        tier2 = cls(
            config.l2_budget_bytes,
            sketch_seed=config.seed + 43,
            fleet_bytes=config.cache_bytes,
        )
        for shard in shards:
            tier2.attach(shard.shard_id, shard.engine)
            # The attach rewired the read path; rebase the clock so no
            # pre-run capture skew leaks into the first charge.
            shard.clock.rebase()
        return tier2

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

    def replace_shard(self, shard_id: int, engine: "KVEngine", emit: Emit) -> None:
        """Replica promotion: swap ``engine`` in under the tier.

        The dead primary's SSTable ids would alias the promoted engine's
        freshly allocated ones inside the shared namespace, so the
        shard's slice is purged before the newcomer is spliced in.
        """
        dropped = self.cache.tier2_drop_shard(shard_id)
        self.attach(shard_id, engine)
        emit("l2drop", shard_id, dropped)

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
            block_cache.on_evict = client.on_demote
        else:
            engine.tree.set_block_fetch(client.fetch_through)
        engine.tier2_client = client
        return client

    # -- fleet bookkeeping ----------------------------------------------------

    @property
    def share(self) -> float:
        """This tier's fraction of the fleet's cache budget."""
        return self.budget_bytes / self.fleet_bytes if self.fleet_bytes else 0.0

    def note_rebalance(
        self,
        l2_share: float,
        evicted: int,
        emit: Emit,
        recorder: Optional["ObsRecorder"],
    ) -> None:
        """Trace (and record) the L1/L2 boundary after one arbitration."""
        emit("l2split", f"{l2_share:.4f}", self.budget_bytes, self.used_bytes)
        if recorder is not None:
            self._flush_obs(recorder)
            recorder.event(
                N.EV_L2_SPLIT,
                share=round(l2_share, 6),
                budget=self.budget_bytes,
                evicted=evicted,
            )

    def _flush_obs(self, recorder: "ObsRecorder") -> None:
        """Fold fleet-level deltas (ghost hits, evictions) onto ``recorder``.

        The coordinator is their single writer; the shard engines own
        the per-shard flow counters.
        """
        cache = self.cache
        mark = (
            cache.ghost_hits_recency,
            cache.ghost_hits_frequency,
            cache.stats.evictions,
        )
        ghr0, ghf0, ev0 = self._obs_mark
        self._obs_mark = mark
        recorder.inc(N.L2_GHOST_HITS_RECENCY, mark[0] - ghr0)
        recorder.inc(N.L2_GHOST_HITS_FREQUENCY, mark[1] - ghf0)
        recorder.inc(N.L2_EVICTIONS, mark[2] - ev0)
        recorder.set_gauge(N.G_L2_BUDGET_SHARE, self.share)
        recorder.set_gauge(N.G_L2_OCCUPANCY, cache.occupancy)

    def finish(
        self,
        result: "ServeResult",
        engines: Sequence["KVEngine"],
        arbiter: Optional["BudgetArbiter"],
        recorder: Optional["ObsRecorder"],
    ) -> None:
        """Fill the ``l2_*`` result fields from the shard clients' counters."""
        if sanitize.env_enabled():
            self.check_invariants()
        if recorder is not None:
            self._flush_obs(recorder)  # the tail beyond the last rebalance
        clients = [e.tier2_client for e in engines if e.tier2_client is not None]
        result.l2_probes = sum(c.probes for c in clients)
        result.l2_hits = sum(c.hits for c in clients)
        result.l2_demotions = sum(c.demotions for c in clients)
        result.l2_admits = sum(c.admits for c in clients)
        result.l2_rejects = result.l2_demotions - result.l2_admits
        result.l2_ghost_hits = self.cache.ghost_hits
        result.l2_evictions = self.cache.stats.evictions
        result.l2_budget_bytes = self.budget_bytes
        result.l2_used_bytes = self.used_bytes
        result.l2_share_final = self.share
        if arbiter is not None:
            result.l2_log = [
                f"{time_us:.3f} share={share:.4f}"
                for time_us, share in arbiter.l2_history
            ]

    @staticmethod
    def fingerprint_fragment(result: "ServeResult") -> List[str]:
        """The tier's share of the fleet fingerprint (empty when flat)."""
        if not result.config.tier2_active:
            return []
        return [
            f"{result.l2_probes}:{result.l2_hits}:{result.l2_demotions}:"
            f"{result.l2_admits}:{result.l2_rejects}:{result.l2_ghost_hits}:"
            f"{result.l2_evictions}:{result.l2_budget_bytes}:"
            f"{result.l2_used_bytes}:{result.l2_share_final:.6f}"
        ] + result.l2_log

    @staticmethod
    def report_lines(result: "ServeResult") -> List[str]:
        """The tier's report section (empty when flat)."""
        if not result.config.tier2_active:
            return []
        probed = result.l2_probes
        hit_rate = result.l2_hits / probed if probed else 0.0
        return [
            f"tier2: budget={result.l2_budget_bytes // 1024} KB "
            f"(share {result.l2_share_final:.3f}) "
            f"hits={result.l2_hits}/{result.l2_probes} "
            f"(rate {hit_rate:.3f}) "
            f"admitted={result.l2_admits}/{result.l2_demotions} "
            f"ghost_hits={result.l2_ghost_hits} "
            f"evictions={result.l2_evictions}"
        ] + [f"l2split: {line}" for line in result.l2_log]

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
