"""Core cache abstractions: stats, eviction-policy interface, container.

:class:`BudgetedCache` is the one byte-budgeted container under every
cache: the block cache, the row cache, the shared L2 tier and the
Range Cache.  It holds key -> value in one ``OrderedDict`` and
charges one constant size per entry.  Built without a policy it is the
uniform-charge LRU of RocksDB's block cache and row cache: the map's
order is the recency order, so a hit is one ``move_to_end`` and an
eviction one ``popitem(last=False)``.  Built with an
:class:`EvictionPolicy` it delegates *which* resident key to sacrifice
to the policy, as RocksDB separates its hash table from the Clock
policy.  CLOCK, ARC, LFU, LeCaR and Cacheus plug in here; learning
policies receive eviction/ghost feedback via ``record_evict``.
Subclasses that index the keys a second way (the Range Cache's sorted
key array) extend :meth:`BudgetedCache._evict_to_fit`, which hands back
its victims in eviction order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterator, List, Optional, TypeVar

from repro import sanitize
from repro.errors import CacheError, InvariantError

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    """Hit/miss/admission accounting for one cache component."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejections: int = 0  # admission-control refusals
    invalidations: int = 0  # removals not driven by capacity

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit; 0.0 when no lookups yet."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> "CacheStats":
        """Copy of the current counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            insertions=self.insertions,
            evictions=self.evictions,
            rejections=self.rejections,
            invalidations=self.invalidations,
        )

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            insertions=self.insertions - earlier.insertions,
            evictions=self.evictions - earlier.evictions,
            rejections=self.rejections - earlier.rejections,
            invalidations=self.invalidations - earlier.invalidations,
        )


class EvictionPolicy(ABC, Generic[K]):
    """Decides which resident key a cache should evict.

    The container calls ``record_insert`` when a key becomes resident,
    ``record_access`` on every hit, ``select_victim`` when over budget,
    ``record_evict`` when the chosen victim leaves (capacity pressure,
    so learning policies may ghost-list it), and ``record_remove`` for
    non-capacity removals (invalidation), which must not count as a
    policy mistake.
    """

    @abstractmethod
    def record_insert(self, key: K) -> None:
        """A key became resident."""

    @abstractmethod
    def record_access(self, key: K) -> None:
        """A resident key was hit."""

    @abstractmethod
    def select_victim(self) -> K:
        """Choose the resident key to evict; raises CacheError if empty."""

    @abstractmethod
    def record_evict(self, key: K) -> None:
        """The victim left due to capacity pressure."""

    @abstractmethod
    def record_remove(self, key: K) -> None:
        """A key left for a non-capacity reason (e.g. invalidation)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of resident keys the policy tracks."""

    @abstractmethod
    def __contains__(self, key: K) -> bool:
        """Whether the policy tracks ``key`` as resident."""

    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.InvariantError` on corrupt state.

        Policies override this with structure-specific checks; the
        default accepts anything so simple policies stay simple.
        """


class BudgetedCache(sanitize.Sanitized, Generic[K, V]):
    """Byte-budgeted key-value cache with one constant charge per entry.

    One ``OrderedDict`` maps key -> value.  With no policy the map's
    order is LRU, least recent first: a hit is one ``move_to_end`` and
    an eviction one ``popitem(last=False)``.  With a policy the map's
    order is unused and the policy is told of every insert, hit,
    eviction and removal, and picks every victim.
    ``tests/cache/test_lru_equivalence.py`` checks step by step that
    the built-in order matches an explicit
    :class:`~repro.cache.lru.LRUPolicy`.  The sampled invariant gate
    comes from :class:`~repro.sanitize.Sanitized`, so every cache reads
    ``REPRO_SANITIZE`` when it is built.

    Parameters
    ----------
    budget_bytes:
        Capacity.  May be resized at runtime (the dynamic boundary).
    charge:
        Logical bytes charged per entry (positive).
    policy:
        Eviction policy instance (owns no values, only key ordering);
        None (the default) is LRU in the value map's own order.
    """

    def __init__(
        self,
        budget_bytes: int,
        charge: int,
        policy: Optional[EvictionPolicy[K]] = None,
    ) -> None:
        if budget_bytes < 0:
            raise CacheError("budget_bytes must be >= 0")
        if charge <= 0:
            raise CacheError("charge must be positive")
        super().__init__()
        self._budget = budget_bytes
        self.charge = charge
        self._policy = policy
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._used = 0
        self.stats = CacheStats()
        #: Capacity-eviction listener ``(key, value)``; invalidations do
        #: not fire it (a removed key is dead, not demoted).  The tiered
        #: serving cache uses this as its L1 demotion feed.
        self.on_evict: Optional[Callable[[K, V], None]] = None

    # -- capacity ---------------------------------------------------------------

    @property
    def budget_bytes(self) -> int:
        """Current capacity in (logical) bytes."""
        return self._budget

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged."""
        return self._used

    @property
    def occupancy(self) -> float:
        """used/budget in [0, 1]; 0 when the budget is zero."""
        return self._used / self._budget if self._budget else 0.0

    def resize(self, budget_bytes: int) -> int:
        """Change capacity, evicting as needed; returns evictions made."""
        if budget_bytes < 0:
            raise CacheError("budget_bytes must be >= 0")
        self._budget = budget_bytes
        evicted = len(self._evict_to_fit())
        self._after_mutation()
        return evicted

    # -- lookups ---------------------------------------------------------------

    def get(self, key: K) -> Optional[V]:  # hot-path
        """Value for ``key`` (promoting it), or None; counts hit/miss."""
        data = self._data
        value = data.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if self._policy is None:
            data.move_to_end(key)
        else:
            self._policy.record_access(key)
        return value

    def peek(self, key: K) -> Optional[V]:
        """Value for ``key`` without touching stats or recency."""
        return self._data.get(key)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[K]:
        """Resident keys; with no policy, least recent first."""
        return iter(self._data)

    # -- mutation ---------------------------------------------------------------

    def put(self, key: K, value: V) -> bool:  # hot-path
        """Insert or overwrite ``key``; returns False if it can never fit."""
        if self.charge > self._budget:
            self.stats.rejections += 1
            return False
        data = self._data
        policy = self._policy
        if key in data:
            data[key] = value
            if policy is None:
                data.move_to_end(key)
            else:
                policy.record_access(key)
        else:
            data[key] = value
            self._used += self.charge
            if policy is not None:
                policy.record_insert(key)
            self.stats.insertions += 1
            if self._used > self._budget:
                self._evict_to_fit()
        if self._sanitizer is not None:
            self._sanitizer.after_mutation(self)
        return True

    def remove(self, key: K) -> bool:
        """Invalidate ``key`` (not an eviction); returns whether present."""
        if self._data.pop(key, None) is None:
            return False
        self._used -= self.charge
        if self._policy is not None:
            self._policy.record_remove(key)
        self.stats.invalidations += 1
        self._after_mutation()
        return True

    def clear(self) -> None:
        """Invalidate everything."""
        if self._policy is not None:
            for key in self._data:
                self._policy.record_remove(key)
        self.stats.invalidations += len(self._data)
        self._data.clear()
        self._used = 0
        self._after_mutation()

    def _evict_to_fit(self) -> List[K]:  # hot-path
        """Evict until the budget holds; returns the victims in eviction
        order (least recent first under built-in LRU)."""
        data = self._data
        policy = self._policy
        on_evict = self.on_evict
        budget, charge, used = self._budget, self.charge, self._used
        victims: List[K] = []
        # used == len(data) * charge, so the map is empty only at used 0.
        while used > budget:
            if policy is None:
                victim, value = data.popitem(False)
            else:
                victim = policy.select_victim()
                if victim not in data:
                    raise CacheError(f"policy chose non-resident victim {victim!r}")
                value = data.pop(victim)
                policy.record_evict(victim)
            used -= charge
            victims.append(victim)
            if on_evict is not None:
                on_evict(victim, value)
        self._used = used
        self.stats.evictions += len(victims)
        return victims

    # -- sanitizer protocol ------------------------------------------------------

    def check_invariants(self) -> None:
        """Byte accounting (one constant charge per entry, within budget)
        and, with a policy, the policy's agreement with the value map."""
        name = type(self).__name__
        expected = len(self._data) * self.charge
        if expected != self._used:
            raise InvariantError(
                f"{name} byte accounting drift: {len(self._data)} entries "
                f"x charge {self.charge} = {expected} != used_bytes {self._used}"
            )
        if self._used > self._budget:
            raise InvariantError(
                f"{name} over budget at rest: used_bytes {self._used} "
                f"> budget_bytes {self._budget}"
            )
        policy = self._policy
        if policy is None:
            return
        if len(policy) != len(self._data):
            raise InvariantError(
                f"{name} policy/dict divergence: policy tracks {len(policy)} "
                f"keys, the cache holds {len(self._data)} (a ghost entry "
                f"leaked or a resident key went untracked)"
            )
        for key in self._data:
            if key not in policy:
                raise InvariantError(
                    f"{name}: resident key {key!r} is unknown to the eviction policy"
                )
        policy.check_invariants()
