"""Range-partitioned sharded Range Cache (paper Section 4.4).

"We implemented a sharded range cache architecture ... the database key
space is partitioned into multiple shards, each guarded by its own lock
to manage concurrent access."

Hash sharding (as the block cache uses) would scatter a scan's adjacent
keys across shards, so the range cache shards by *key range*: shard
boundaries split the key space, each shard owns an independent
:class:`~repro.cache.range_cache.RangeCache` (with its own lock), and a
scan is served by the shard owning its start key.  Scans that would
cross a shard boundary fall through to the LSM-tree (boundaries are
chosen so this is rare when the key space is known).
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Sequence

from repro import sanitize
from repro.cache.base import CacheBase, CacheStats, EvictionPolicy
from repro.cache.range_cache import Entry, RangeCache
from repro.errors import CacheError, InvariantError

PolicyFactory = Callable[[], Optional[EvictionPolicy[str]]]


class ShardedRangeCache(CacheBase):
    """Key-range-partitioned Range Cache with per-shard budgets.

    Parameters
    ----------
    budget_bytes:
        Total budget, split evenly across shards.
    boundaries:
        Sorted split keys; ``len(boundaries) + 1`` shards are created.
        Shard ``i`` owns keys in ``[boundaries[i-1], boundaries[i])``.
    entry_charge:
        Logical bytes per entry.
    policy_factory:
        Builds each shard's eviction policy (None -> per-shard LRU).
    seed:
        Base seed for the shards' sampled invariant checks.
    """

    def __init__(
        self,
        budget_bytes: int,
        boundaries: Sequence[str],
        entry_charge: int = 1024,
        policy_factory: Optional[PolicyFactory] = None,
        seed: int = 0,
    ) -> None:
        if budget_bytes < 0:
            raise CacheError("budget_bytes must be >= 0")
        self._boundaries: List[str] = list(boundaries)
        if self._boundaries != sorted(set(self._boundaries)):
            raise CacheError("boundaries must be sorted and unique")
        num_shards = len(self._boundaries) + 1
        factory = policy_factory or (lambda: None)
        per_shard = budget_bytes // num_shards
        remainder = budget_bytes - per_shard * (num_shards - 1)
        self._shards: List[RangeCache] = [
            RangeCache(
                remainder if i == 0 else per_shard,
                entry_charge=entry_charge,
                policy=factory(),
                seed=seed + i,
            )
            for i in range(num_shards)
        ]
        self.entry_charge = entry_charge
        self.cross_shard_misses = 0

    # -- routing ----------------------------------------------------------------

    def shard_index(self, key: str) -> int:
        """Which shard owns ``key``."""
        return bisect.bisect_right(self._boundaries, key)

    def _shard(self, key: str) -> RangeCache:
        return self._shards[self.shard_index(key)]

    def _upper_bound(self, shard_idx: int) -> Optional[str]:
        if shard_idx < len(self._boundaries):
            return self._boundaries[shard_idx]
        return None

    @property
    def num_shards(self) -> int:
        """Number of key-range partitions."""
        return len(self._shards)

    def shards(self) -> List[RangeCache]:
        """The underlying per-range caches (diagnostics/tests)."""
        return list(self._shards)

    # -- cache interface (mirrors RangeCache) ----------------------------------

    def get_point(self, key: str) -> Optional[str]:
        """Point lookup routed to the owning shard."""
        return self._shard(key).get_point(key)

    def insert_point(self, key: str, value: str) -> bool:
        """Point-result admission routed to the owning shard."""
        return self._shard(key).insert_point(key, value)

    def insert_points(self, pairs: List[Entry]) -> int:
        """Batch point admission: the batch is split by owning shard
        (arrival order preserved within each group) and each shard
        splices its group in one sorted pass — see
        :meth:`RangeCache.insert_points`.  A batch of one routes
        through the owning shard's scalar :meth:`insert_point` path."""
        if len(pairs) == 1:
            key, value = pairs[0]
            return 1 if self._shard(key).insert_point(key, value) else 0
        groups: Dict[int, List[Entry]] = {}
        shard_index = self.shard_index
        for pair in pairs:
            groups.setdefault(shard_index(pair[0]), []).append(pair)
        shards = self._shards
        return sum(
            shards[idx].insert_points(group) for idx, group in groups.items()
        )

    def contains(self, key: str) -> bool:
        """Residency probe."""
        return self._shard(key).contains(key)

    def get_range(self, start: str, length: int) -> Optional[List[Entry]]:
        """Serve a scan if it stays within the owning shard.

        A hit whose entries would cross the shard's upper boundary is
        treated as a miss (and counted), since the neighbouring shard's
        completeness cannot be combined lock-free.
        """
        idx = self.shard_index(start)
        result = self._shards[idx].get_range(start, length)
        if result is None:
            return None
        bound = self._upper_bound(idx)
        if bound is not None and result and result[-1][0] >= bound:
            self.cross_shard_misses += 1
            return None
        return result

    def insert_range(
        self, start: str, entries: List[Entry], admit_count: Optional[int] = None
    ) -> int:
        """Admit the prefix of a scan result that fits the owning shard."""
        idx = self.shard_index(start)
        bound = self._upper_bound(idx)
        if bound is not None:
            entries = [e for e in entries if e[0] < bound]
        if not entries:
            return 0
        return self._shards[idx].insert_range(start, entries, admit_count)

    def on_write(self, key: str, value: str) -> None:
        """Write-coherence hook."""
        self._shard(key).on_write(key, value)

    def on_delete(self, key: str) -> None:
        """Delete-coherence hook."""
        self._shard(key).on_delete(key)

    def clear(self) -> None:
        """Drop every shard's entries and intervals."""
        for shard in self._shards:
            shard.clear()

    # -- capacity ----------------------------------------------------------------

    @property
    def budget_bytes(self) -> int:
        """Total capacity across shards."""
        return sum(s.budget_bytes for s in self._shards)

    @property
    def used_bytes(self) -> int:
        """Total charged bytes across shards."""
        return sum(s.used_bytes for s in self._shards)

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def resize(self, budget_bytes: int) -> int:
        """Re-split a new total budget evenly; returns evictions made."""
        num = self.num_shards
        per_shard = budget_bytes // num
        remainder = budget_bytes - per_shard * (num - 1)
        evicted = 0
        for i, shard in enumerate(self._shards):
            evicted += shard.resize(remainder if i == 0 else per_shard)
        return evicted

    @property
    def stats(self) -> CacheStats:
        """Aggregated hit/miss stats across shards."""
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

    def enable_sanitizer(
        self, period: int = sanitize.DEFAULT_PERIOD, seed: int = 0
    ) -> None:
        """Enable per-shard sanitizers (mutations bypass this facade)."""
        super().enable_sanitizer(period=period, seed=seed)
        for i, shard in enumerate(self._shards):
            shard.enable_sanitizer(period=period, seed=seed + i)

    def check_invariants(self) -> None:
        """Per-shard health plus every resident key inside its shard's range."""
        if len(self._shards) != len(self._boundaries) + 1:
            raise InvariantError(
                f"ShardedRangeCache shard bookkeeping drift: "
                f"{len(self._shards)} shards for {len(self._boundaries)} "
                f"boundaries"
            )
        for idx, shard in enumerate(self._shards):
            shard.check_invariants()
            lower = self._boundaries[idx - 1] if idx > 0 else None
            upper = self._upper_bound(idx)
            for key in shard.resident_keys():
                if (lower is not None and key < lower) or (
                    upper is not None and key >= upper
                ):
                    raise InvariantError(
                        f"ShardedRangeCache misrouted entry: key {key!r} "
                        f"lives in shard {idx} but its range is "
                        f"[{lower!r}, {upper!r})"
                    )


def even_boundaries(num_keys: int, num_shards: int, key_of) -> List[str]:
    """Evenly spaced shard boundaries for a known integer key space."""
    if num_shards <= 0:
        raise CacheError("num_shards must be positive")
    step = num_keys // num_shards
    return [key_of(step * i) for i in range(1, num_shards)]
