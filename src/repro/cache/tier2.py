"""Fleet-shared second cache tier with ghost-directed admission.

The serving fleet's per-shard block/range caches (L1) are partitioned:
a byte granted to one shard is invisible to every other, so a skewed
tenant can thrash its own shard's L1 while the rest of the fleet holds
cold bytes.  :class:`Tier2Cache` is a single shared tier between every
shard's L1 and the simulated disk — slower than an L1 hit (the sim
clock charges a configurable fetch latency), far cheaper than a disk
read — that turns one shard's evicted-but-hot blocks into fleet-wide
capacity, the motivation LSbM-tree (arXiv:1606.02015) gives for a
dedicated second buffer under compaction churn.

The tier is a :class:`~repro.cache.base.BudgetedCache` over one
:class:`~repro.cache.arc.ARCPolicy` (Megiddo & Modha, FAST'03): the
container holds the blocks, the byte budget, the stats and the eviction
loop; the policy holds residency order — a recency list T1 and a
frequency list T2 — and the ghost lists B1/B2 that remember recent
evictions and steer the adaptive recency target ``p``.  Admission is
*filtered*: an L1 victim enters only with proven reuse — a ghost hit
(the block was here before and was re-demanded) or a decaying
Count-Min sketch count of at least two across the fleet (the sketch
observes every L2 probe miss).  Everything else is rejected, which is
what keeps one scan-heavy shard from flushing the shared tier.

Keys are ``(shard_id, BlockHandle)``: each serving shard owns its own
simulated disk, so raw handles collide across shards and must be
namespaced.  When a shard's engine is replaced (replica promotion),
:meth:`tier2_drop_shard` purges its namespace — the new engine's
SSTable ids would otherwise alias the dead primary's cached blocks.

Determinism and ownership: the cache draws no randomness (the sketch
is seeded) and every mutation happens through the ``tier2_*`` methods,
which only the owning serve-side coordinator
(:class:`repro.serve.tier2.Tier2Coordinator`) may call from inside the
event loop — lint rule OWN004 flags a ``tier2_*`` call from any
file not named ``tier2.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.arc import ARCPolicy
from repro.cache.base import BudgetedCache
from repro.cache.sketch import CountMinSketch
from repro.errors import CacheError, InvariantError
from repro.lsm.block import BlockHandle, DataBlock

#: One entry's key: the owning serve shard plus its block handle.
Tier2Key = Tuple[int, BlockHandle]


class Tier2Cache(BudgetedCache[Tier2Key, DataBlock]):
    """Shared L2 block cache: ARC ghosts + double-hit admission.

    Hits, misses, admits (``stats.insertions``), evictions and
    invalidations are the container's :attr:`stats`; the offers, the
    rejected offers and the ghost hits behind admits are counted here.

    Parameters
    ----------
    budget_bytes:
        Shared capacity across the whole fleet.
    block_size:
        Charge per cached block (one LSM data block).
    sketch_seed:
        Salt for the admission sketch's row hashes.
    """

    def __init__(
        self, budget_bytes: int, block_size: int, sketch_seed: int = 0
    ) -> None:
        # ARC capacity in blocks: the classic ghost bound.  The container
        # rejects a block_size below 1; the floor only defers it there.
        self._arc: ARCPolicy[Tier2Key] = ARCPolicy(
            max(1, budget_bytes // max(1, block_size))
        )
        super().__init__(budget_bytes, block_size, self._arc)
        self._sketch = CountMinSketch(
            width=2048, depth=4, saturation=16, seed=sketch_seed
        )
        # Fleet-visible admission counters (single writer: the serve
        # coordinator mutates, everyone else reads).
        self.ghost_hits_recency = 0  # B1 hits at admission
        self.ghost_hits_frequency = 0  # B2 hits at admission
        self.demotions = 0  # L1 victims offered
        self.rejects = 0

    @property
    def ghost_hits(self) -> int:
        """Total admission-time ghost hits (recency + frequency)."""
        return self.ghost_hits_recency + self.ghost_hits_frequency

    @property
    def reuse_signal(self) -> int:
        """Monotone evidence the shared tier is earning its bytes.

        Hits are realised savings; ghost hits are savings a larger L2
        would have realised.  The budget arbiter reads the deltas of
        this signal to learn the fleet L1/L2 split.
        """
        return self.stats.hits + self.ghost_hits_recency + self.ghost_hits_frequency

    # -- reads ------------------------------------------------------------

    @staticmethod
    def _sketch_key(key: Tier2Key) -> str:
        shard_id, handle = key
        return f"{shard_id}:{handle.sst_id}:{handle.block_no}"

    def tier2_probe(self, key: Tier2Key) -> Optional[DataBlock]:  # hot-path
        """Serve one L1-miss lookup; observes demand for admission.

        A T1 hit promotes the block to T2 (its second touch proves
        reuse); a T2 hit refreshes recency.  A miss feeds the sketch —
        the fleet-wide demand count the double-hit filter consults when
        this block is later demoted out of some shard's L1.
        """
        block = self.get(key)
        if block is None:
            self._sketch.increment(self._sketch_key(key))
        return block

    # -- admission (L1 demotion) -------------------------------------------

    def tier2_offer(self, key: Tier2Key, block: DataBlock) -> bool:
        """Offer an L1 victim; admits only blocks seen twice fleet-wide.

        Admission evidence, in priority order:

        * **B1 ghost hit** — the block was evicted from L2's recency
          side and demanded again: ARC grows ``p`` and seats it in T2;
        * **B2 ghost hit** — evicted from the frequency side and back:
          ARC shrinks ``p``, seats it in T2;
        * **sketch count >= 2** — at least two L2 misses for this block
          across the fleet: seat in T1 (first residency, unproven).

        Anything else is rejected — a single cold read does not earn
        shared bytes.  Returns whether the block was admitted.
        """
        self.demotions += 1
        if self.charge > self._budget or key in self._data:
            # Larger than the whole tier, or already resident (another
            # shard re-fetched it first or a probe raced a demotion
            # through the loop): the offer is counted as a reject.
            self.rejects += 1
            return False
        ghost = self._arc.ghost_of(key)
        if ghost == "B1":
            self.ghost_hits_recency += 1
        elif ghost == "B2":
            self.ghost_hits_frequency += 1
        elif self._sketch.estimate(self._sketch_key(key)) < 2:
            self.rejects += 1
            return False
        # ARC's record_insert seats a ghost in T2 and anything else in T1.
        return self.put(key, block)

    # -- maintenance -------------------------------------------------------

    def tier2_resize(self, budget_bytes: int) -> int:
        """Rebound the shared budget; returns evictions forced."""
        if budget_bytes < 0:
            raise CacheError("budget_bytes must be >= 0")
        self._arc.resize(max(1, budget_bytes // self.charge))
        return self.resize(budget_bytes)

    def tier2_drop_shard(self, shard_id: int) -> int:
        """Purge one shard's namespace (its engine was replaced).

        A promoted replica allocates SSTable ids from its own simulated
        disk, so the dead primary's cached blocks would alias fresh
        handles with stale bytes.  Ghosts go too: the signal they
        encode belongs to the dead namespace.  Returns blocks dropped.
        """
        dropped = 0
        for key in [k for k in self._arc.tracked_keys() if k[0] == shard_id]:
            if self.remove(key):
                dropped += 1
            else:
                self._arc.record_remove(key)
        return dropped

    # -- sanitizer protocol -------------------------------------------------

    def check_invariants(self) -> None:
        """The container's checks (budget, accounting, ARC agreement)
        plus admission accounting."""
        super().check_invariants()
        if self.stats.insertions + self.rejects != self.demotions:
            raise InvariantError(
                f"Tier2Cache admission accounting drift: {self.stats.insertions} "
                f"admits + {self.rejects} rejects != {self.demotions} offers"
            )
