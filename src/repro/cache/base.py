"""Core cache abstractions: stats, eviction-policy interface, containers.

Two containers share one surface (stats, ``get``/``put``/``remove``,
``get_or_fill``, ``resize``, ``clear``, ``keys``/``peek``, the
``on_evict`` feed and the sanitizer checks):

* :class:`LRUCache` is the uniform-charge LRU of RocksDB's block cache
  and of the row cache.  One ``OrderedDict`` holds key -> value in
  recency order, so a hit is one ``move_to_end`` and an eviction one
  ``popitem(last=False)``; no second structure mirrors its keys.
* :class:`BudgetedCache` owns a key -> (value, charge) map and the byte
  budget, and delegates *which* resident key to sacrifice to an
  :class:`EvictionPolicy`, as RocksDB separates its hash table from the
  Clock policy.  CLOCK, ARC, LFU, LeCaR and Cacheus plug in here;
  learning policies receive eviction/ghost feedback via
  ``record_evict``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar

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


class CacheBase(sanitize.Sanitized):
    """Uniform surface every cache container exposes.

    Concrete caches (block, range, kv, tier-2, and the generic
    :class:`LRUCache` and :class:`BudgetedCache`) all present the same
    capacity pair — :attr:`budget_bytes` / :attr:`used_bytes` — so the
    sanitizer, the controller, and metrics read one interface regardless
    of which composition is running.  The ``check_invariants()``
    protocol and the sampled gate come from
    :class:`~repro.sanitize.Sanitized`; every cache reads
    ``REPRO_SANITIZE`` when it is built.
    """

    @property
    @abstractmethod
    def budget_bytes(self) -> int:
        """Current capacity in (logical) bytes."""

    @property
    @abstractmethod
    def used_bytes(self) -> int:
        """Bytes currently charged against the budget."""

    @property
    def occupancy(self) -> float:
        """used/budget in [0, 1]; 0 when the budget is zero."""
        budget = self.budget_bytes
        return self.used_bytes / budget if budget else 0.0


class EvictionPolicy(ABC, Generic[K]):
    """Decides which resident key a cache should evict.

    The container calls ``record_insert`` when a key becomes resident,
    ``record_access`` on every hit, ``select_victim`` when over budget,
    ``record_evict`` when the chosen victim leaves (capacity pressure,
    so learning policies may ghost-list it), ``evict`` when it needs
    several victims at once, and ``record_remove`` for non-capacity
    removals (invalidation), which must not count as a policy mistake.
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

    def evict(self, count: int) -> List[K]:
        """Choose ``count`` victims and evict them; returns them in order.

        ``count`` rounds of :meth:`select_victim` then
        :meth:`record_evict`, so a learning policy sees the same call
        sequence (and RNG draws) as a per-victim loop.  Policies that
        can drop a batch faster override this with the same result.
        """
        victims: List[K] = []
        for _ in range(count):
            victim = self.select_victim()
            self.record_evict(victim)
            victims.append(victim)
        return victims

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


class BudgetedCache(CacheBase, Generic[K, V]):
    """Byte-budgeted key-value cache with a pluggable eviction policy.

    Parameters
    ----------
    budget_bytes:
        Capacity.  May be resized at runtime (the dynamic boundary).
    policy:
        Eviction policy instance; owns no values, only key ordering.
    charge_of:
        Size function applied to ``(key, value)`` on insert.
    """

    def __init__(
        self,
        budget_bytes: int,
        policy: EvictionPolicy[K],
        charge_of: Callable[[K, V], int],
    ) -> None:
        if budget_bytes < 0:
            raise CacheError("budget_bytes must be >= 0")
        self._budget = budget_bytes
        self._policy = policy
        self._charge_of = charge_of
        self._data: Dict[K, Tuple[V, int]] = {}
        self._used = 0
        self.stats = CacheStats()
        #: Capacity-eviction listener ``(key, value)``; invalidations do
        #: not fire it (a removed key is dead, not demoted).  The tiered
        #: serving cache uses this as its L1 demotion feed.
        self.on_evict: Optional[Callable[[K, V], None]] = None
        self._sanitizer = sanitize.from_env()

    # -- capacity ---------------------------------------------------------------

    @property
    def budget_bytes(self) -> int:
        """Current capacity in (logical) bytes."""
        return self._budget

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged."""
        return self._used

    def resize(self, budget_bytes: int) -> int:
        """Change capacity, evicting as needed; returns evictions made."""
        if budget_bytes < 0:
            raise CacheError("budget_bytes must be >= 0")
        self._budget = budget_bytes
        evicted = self._evict_to_fit()
        self._after_mutation()
        return evicted

    # -- lookups ---------------------------------------------------------------

    def get(self, key: K) -> Optional[V]:  # hot-path
        """Value for ``key`` (promoting it), or None; counts hit/miss."""
        entry = self._data.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._policy.record_access(key)
        return entry[0]

    def get_or_fill(self, key: K, fill: Callable[[K], V]) -> V:  # hot-path
        """Value for ``key`` (promoting it), or ``fill(key)`` put on a miss.

        One call for a read-through cache: the same stats, policy calls
        and evictions as :meth:`get` followed, on a miss, by
        :meth:`put` of the filled value.
        """
        entry = self._data.get(key)
        if entry is not None:
            self.stats.hits += 1
            self._policy.record_access(key)
            return entry[0]
        self.stats.misses += 1
        value = fill(key)
        self.put(key, value)
        return value

    def peek(self, key: K) -> Optional[V]:
        """Value for ``key`` without touching stats or recency."""
        entry = self._data.get(key)
        return entry[0] if entry else None

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[K]:
        """Resident keys (unordered)."""
        return iter(self._data)

    # -- mutation ---------------------------------------------------------------

    def put(self, key: K, value: V) -> bool:  # hot-path
        """Insert or overwrite ``key``; returns False if it can never fit."""
        charge = self._charge_of(key, value)
        if charge > self._budget:
            self.stats.rejections += 1
            return False
        data = self._data
        old = data.get(key)
        if old is not None:
            self._used -= old[1]
            data[key] = (value, charge)
            self._used += charge
            self._policy.record_access(key)
        else:
            data[key] = (value, charge)
            self._used += charge
            self._policy.record_insert(key)
            self.stats.insertions += 1
        if self._used > self._budget:
            self._evict_to_fit()
        if self._sanitizer is not None:
            self._sanitizer.after_mutation(self)
        return True

    def remove(self, key: K) -> bool:
        """Invalidate ``key`` (not an eviction); returns whether present."""
        entry = self._data.pop(key, None)
        if entry is None:
            return False
        self._used -= entry[1]
        self._policy.record_remove(key)
        self.stats.invalidations += 1
        self._after_mutation()
        return True

    def clear(self) -> None:
        """Invalidate everything."""
        for key in list(self._data):
            self.remove(key)

    def _evict_to_fit(self) -> int:
        evicted = 0
        on_evict = self.on_evict
        while self._used > self._budget and self._data:
            victim = self._policy.select_victim()
            entry = self._data.pop(victim, None)
            if entry is None:
                raise CacheError(f"policy chose non-resident victim {victim!r}")
            self._used -= entry[1]
            self._policy.record_evict(victim)
            self.stats.evictions += 1
            evicted += 1
            if on_evict is not None:
                on_evict(victim, entry[0])
        return evicted

    # -- sanitizer protocol ------------------------------------------------------

    def check_invariants(self) -> None:
        """Byte-accounting conservation and policy/dict cross-consistency."""
        total = sum(charge for _, charge in self._data.values())
        if total != self._used:
            raise InvariantError(
                f"BudgetedCache byte accounting drift: sum of entry charges "
                f"{total} != used_bytes {self._used} ({len(self._data)} entries)"
            )
        if self._used > self._budget:
            raise InvariantError(
                f"BudgetedCache over budget at rest: used_bytes {self._used} "
                f"> budget_bytes {self._budget}"
            )
        policy_len = len(self._policy)
        if policy_len != len(self._data):
            raise InvariantError(
                f"BudgetedCache policy/dict divergence: policy tracks "
                f"{policy_len} keys, cache holds {len(self._data)} "
                f"(a ghost entry leaked or a resident key went untracked)"
            )
        for key in self._data:
            if key not in self._policy:
                raise InvariantError(
                    f"BudgetedCache resident key {key!r} is unknown to the "
                    f"eviction policy"
                )
        self._policy.check_invariants()


class LRUCache(CacheBase, Generic[K, V]):
    """Byte-budgeted LRU cache with one constant charge per entry.

    The value map is the recency order: least recent first.  Hits,
    misses, victims and victim order are those of a
    :class:`BudgetedCache` over an :class:`~repro.cache.lru.LRUPolicy`
    with a constant charge, which ``tests/cache/test_lru_equivalence.py``
    checks step by step.

    Parameters
    ----------
    budget_bytes:
        Capacity.  May be resized at runtime (the dynamic boundary).
    charge:
        Logical bytes charged per entry.
    """

    def __init__(self, budget_bytes: int, charge: int) -> None:
        if budget_bytes < 0:
            raise CacheError("budget_bytes must be >= 0")
        self._budget = budget_bytes
        self.charge = charge
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._used = 0
        self.stats = CacheStats()
        #: Capacity-eviction listener ``(key, value)``; invalidations do
        #: not fire it (a removed key is dead, not demoted).
        self.on_evict: Optional[Callable[[K, V], None]] = None
        self._sanitizer = sanitize.from_env()

    # -- capacity ---------------------------------------------------------------

    @property
    def budget_bytes(self) -> int:
        """Current capacity in (logical) bytes."""
        return self._budget

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged."""
        return self._used

    def resize(self, budget_bytes: int) -> int:
        """Change capacity, evicting as needed; returns evictions made."""
        if budget_bytes < 0:
            raise CacheError("budget_bytes must be >= 0")
        self._budget = budget_bytes
        evicted = self._evict_to_fit()
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
        data.move_to_end(key)
        return value

    def get_or_fill(self, key: K, fill: Callable[[K], V]) -> V:  # hot-path
        """Value for ``key`` (promoting it), or ``fill(key)`` put on a miss."""
        data = self._data
        value = data.get(key)
        if value is not None:
            self.stats.hits += 1
            data.move_to_end(key)
            return value
        self.stats.misses += 1
        value = fill(key)
        self.put(key, value)
        return value

    def peek(self, key: K) -> Optional[V]:
        """Value for ``key`` without touching stats or recency."""
        return self._data.get(key)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[K]:
        """Resident keys, least recent first."""
        return iter(self._data)

    # -- mutation ---------------------------------------------------------------

    def put(self, key: K, value: V) -> bool:  # hot-path
        """Insert or overwrite ``key``; returns False if it can never fit."""
        if self.charge > self._budget:
            self.stats.rejections += 1
            return False
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
        else:
            data[key] = value
            self._used += self.charge
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
        self.stats.invalidations += 1
        self._after_mutation()
        return True

    def clear(self) -> None:
        """Invalidate everything."""
        self.stats.invalidations += len(self._data)
        self._data.clear()
        self._used = 0
        self._after_mutation()

    def _evict_to_fit(self) -> int:
        data = self._data
        popitem = data.popitem
        on_evict = self.on_evict
        evicted = 0
        while self._used > self._budget and data:
            victim, value = popitem(False)
            self._used -= self.charge
            self.stats.evictions += 1
            evicted += 1
            if on_evict is not None:
                on_evict(victim, value)
        return evicted

    # -- sanitizer protocol ------------------------------------------------------

    def check_invariants(self) -> None:
        """Byte accounting: one constant charge per entry, within budget."""
        expected = len(self._data) * self.charge
        if expected != self._used:
            raise InvariantError(
                f"LRUCache byte accounting drift: {len(self._data)} entries "
                f"x charge {self.charge} = {expected} != used_bytes {self._used}"
            )
        if self._used > self._budget:
            raise InvariantError(
                f"LRUCache over budget at rest: used_bytes {self._used} "
                f"> budget_bytes {self._budget}"
            )
