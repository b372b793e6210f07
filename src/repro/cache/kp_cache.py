"""Key-pointer (KP) cache, per AC-Key (Wu et al., ATC'20).

The paper's related work describes AC-Key's middle tier: alongside a
KV cache (full results, most memory per entry) and the block cache, a
**KP cache** stores ``key -> block handle`` pointers.  A KP hit does
not avoid the data-block read, but it skips the whole multi-level
search — bloom probes, index lookups, and the newest-to-oldest file
walk — for one cheap pointer dereference.  Pointers are tiny, so a KP
cache covers far more keys per byte than a KV cache.

Unlike result caches, pointers *are* invalidated by compaction (they
name physical blocks).  Stale pointers are detected lazily: a hit whose
SSTable is no longer live is dropped and reported as a miss, and a hit
whose block no longer contains the key (the key moved within a live
file — impossible here, but checked defensively) falls back too.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.cache.base import BudgetedCache, CacheBase, CacheStats, EvictionPolicy
from repro.cache.lru import LRUPolicy
from repro.errors import InvariantError
from repro.lsm.block import BlockFetch, BlockHandle

IsLive = Callable[[int], bool]

#: Logical charge per pointer entry: key (24 B) + handle (~16 B).
DEFAULT_POINTER_CHARGE = 40


class KPCache(CacheBase):
    """Byte-budgeted ``key -> BlockHandle`` cache with lazy invalidation.

    Parameters
    ----------
    budget_bytes:
        Capacity.
    is_live:
        Predicate telling whether an SSTable id is still on disk
        (normally ``disk.has``).
    entry_charge:
        Logical bytes per pointer entry.
    policy:
        Eviction policy (default LRU).
    """

    def __init__(
        self,
        budget_bytes: int,
        is_live: IsLive,
        entry_charge: int = DEFAULT_POINTER_CHARGE,
        policy: Optional[EvictionPolicy[str]] = None,
    ) -> None:
        self.entry_charge = entry_charge
        self._is_live = is_live
        self._cache: BudgetedCache[str, BlockHandle] = BudgetedCache(
            budget_bytes,
            policy if policy is not None else LRUPolicy(),
            lambda _key, _value: entry_charge,
        )
        self.stale_hits = 0

    def lookup(self, key: str, fetch: BlockFetch) -> Tuple[bool, Optional[str]]:
        """Resolve ``key`` through its cached pointer.

        Returns ``(hit, value)``; ``hit`` is False when there is no
        pointer, the pointer is stale (compacted away), or the block no
        longer holds the key — all of which drop the entry.
        """
        handle = self._cache.get(key)
        if handle is None:
            return False, None
        if not self._is_live(handle.sst_id):
            self._cache.remove(key)
            self.stale_hits += 1
            return False, None
        block = fetch(handle)
        found, value = block.get(key)
        if not found or value is None:
            # Defensive: the pointer no longer resolves to a live value.
            self._cache.remove(key)
            self.stale_hits += 1
            return False, None
        return True, value

    def remember(self, key: str, handle: BlockHandle) -> bool:
        """Record where ``key`` was found."""
        return self._cache.put(key, handle)

    def on_write(self, key: str) -> None:
        """A put supersedes the pointed-to version: drop the pointer."""
        self._cache.remove(key)

    def on_delete(self, key: str) -> None:
        """A delete removes the key entirely: drop the pointer."""
        self._cache.remove(key)

    def contains(self, key: str) -> bool:
        """Residency probe without stats side effects."""
        return key in self._cache

    def clear(self) -> None:
        """Invalidate every pointer (e.g. after a crash/restart)."""
        self._cache.clear()

    def resize(self, budget_bytes: int) -> int:
        """Change capacity; returns evictions made."""
        return self._cache.resize(budget_bytes)

    @property
    def budget_bytes(self) -> int:
        """Current capacity."""
        return self._cache.budget_bytes

    @property
    def used_bytes(self) -> int:
        """Bytes charged."""
        return self._cache.used_bytes

    @property
    def stats(self) -> CacheStats:
        """Hit/miss counters (stale hits count as misses downstream)."""
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    def check_invariants(self) -> None:
        """Inner cache health plus the uniform per-pointer charge."""
        self._cache.check_invariants()
        for key, charge in self._cache.entry_charges():
            if charge != self.entry_charge:
                raise InvariantError(
                    f"KPCache pointer {key!r} charged {charge} bytes, "
                    f"expected uniform charge {self.entry_charge}"
                )
