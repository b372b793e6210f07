"""Result-based cache over a sorted key array: the Range Cache.

Reimplementation of Range Cache (Wang et al., ICDE'24) as the paper's
result-caching substrate.  Query results — single keys from point
lookups, runs of adjacent keys from scans — are stored in logical key
order, decoupled from SSTable layout, so compactions never invalidate
them.  The paper asks only for "a sorted structure (e.g., a skip
list)"; here it is one sorted ``list`` of keys searched with
:mod:`bisect`, beside one ``OrderedDict`` from key to value.  A scan
result enters the array with one slice assignment, and one eviction
pass removes all of its victims together.

Correctness for scans needs more than resident keys: a scan must know
that *no* database key in the requested window is missing from the
cache.  The cache therefore tracks *complete intervals*
(:class:`~repro.cache.intervals.IntervalSet`): a scan starting at
``start`` is a hit only when ``start`` lies in a complete interval and
the requested number of entries is found without leaving it.  Evicting
any entry splits the interval around the evicted key.

Eviction works at single-entry granularity.  Built without a policy,
the cache is LRU and the value map *is* the recency order, least recent
first: a hit is a ``move_to_end`` and the victims are the map's oldest
entries.  A policy passed explicitly (LeCaR and Cacheus form the
paper's baseline variants) is told of every insert, hit, eviction and
removal instead, and the map's order is then unused.
"""

from __future__ import annotations

import functools
import operator
import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

from repro import sanitize
from repro.cache.base import CacheBase, CacheStats, EvictionPolicy, check_policy_residency
from repro.cache.intervals import IntervalSet
from repro.errors import CacheError, InvariantError
from repro.lsm.block import Entry
from repro.obs import names as N
from repro.obs.recorder import NULL_RECORDER, Recorder


#: Stable batch sort key: by key only, so duplicate keys keep arrival
#: order and the last write wins as in a scalar insert loop.
_entry_key = operator.itemgetter(0)

F = TypeVar("F", bound=Callable[..., Any])


def _locked(method: F) -> F:
    """Guard a RangeCache method with the instance lock.

    The paper shards the range cache for multi-client deployments; at
    simulator scale a single re-entrant lock gives the same safety with
    negligible cost next to the simulated I/O.
    """

    @functools.wraps(method)
    def wrapper(self: "RangeCache", *args: Any, **kwargs: Any) -> Any:
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper  # type: ignore[return-value]


class RangeCache(CacheBase):
    """Sorted result cache with complete-interval tracking.

    Parameters
    ----------
    budget_bytes:
        Memory budget; resized at runtime by the adaptive boundary.
    entry_charge:
        Logical bytes charged per cached entry (key + value size).
    policy:
        Eviction policy over cached keys; None (the default) is LRU in
        the value map's own order.
    seed:
        Seed for the sampled invariant checks (``REPRO_SANITIZE``).
    """

    def __init__(
        self,
        budget_bytes: int,
        entry_charge: int = 1024,
        policy: Optional[EvictionPolicy[str]] = None,
        seed: int = 0,
    ) -> None:
        if budget_bytes < 0:
            raise CacheError("budget_bytes must be >= 0")
        if entry_charge <= 0:
            raise CacheError("entry_charge must be positive")
        self._budget = budget_bytes
        self.entry_charge = entry_charge
        self._keys: List[str] = []  # resident keys, strictly ascending
        #: key -> value; with no policy, least recently used first.
        self._values: "OrderedDict[str, str]" = OrderedDict()
        self._intervals = IntervalSet()
        self._policy: Optional[EvictionPolicy[str]] = policy
        self._used = 0
        self._lock = threading.RLock()
        self.stats = CacheStats()
        self.point_hits = 0
        self.range_hits = 0
        self.recorder: Recorder = NULL_RECORDER
        self._sanitizer = sanitize.from_env(seed)

    # -- capacity -------------------------------------------------------------

    @property
    def budget_bytes(self) -> int:
        """Current capacity in logical bytes."""
        return self._budget

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged."""
        return self._used

    def __len__(self) -> int:
        return len(self._keys)

    @_locked
    def resize(self, budget_bytes: int) -> int:
        """Change capacity, evicting to fit; returns evictions made."""
        if budget_bytes < 0:
            raise CacheError("budget_bytes must be >= 0")
        self._budget = budget_bytes
        evicted = self._evict_to_fit()
        if evicted and self.recorder.enabled:
            self.recorder.event(
                N.EV_CACHE_EVICT,
                cache="range",
                evicted=evicted,
                budget_bytes=budget_bytes,
            )
        self._after_mutation()
        return evicted

    # -- point lookups -----------------------------------------------------------

    def get_point(self, key: str) -> Optional[str]:  # hot-path
        """Serve a point lookup from cache, or None on miss."""
        with self._lock:
            values = self._values
            if key in values:
                self.stats.hits += 1
                self.point_hits += 1
                if self._policy is None:
                    values.move_to_end(key)
                else:
                    self._policy.record_access(key)
                return values[key]
            self.stats.misses += 1
            return None

    @_locked
    def contains(self, key: str) -> bool:
        """Residency probe without stats side effects."""
        return key in self._values

    def insert_point(self, key: str, value: str) -> bool:  # hot-path
        """Admit one point-lookup result."""
        with self._lock:
            admitted = self._admit(((key, value),)) > 0
            if self._sanitizer is not None:
                self._sanitizer.after_mutation(self)
            return admitted

    def insert_points(self, pairs: List[Entry]) -> int:  # hot-path
        """Admit a batch of point-lookup results in one sorted splice.

        ``pairs`` arrive in admission order; they are sorted by key
        (stably, so duplicate keys keep arrival order and the last write
        wins exactly as a scalar loop's would) and admitted together,
        with eviction deferred to the end of the batch.  Unlike
        :meth:`insert_range` no complete interval is recorded — these
        are isolated keys.  Returns the number of entries admitted (0
        when the per-entry charge exceeds the budget).
        """
        with self._lock:
            inserted = self._admit(sorted(pairs, key=_entry_key))
            if self._sanitizer is not None:
                self._sanitizer.after_mutation(self)
            return inserted

    # -- range scans -----------------------------------------------------------

    def get_range(self, start: str, length: int) -> Optional[List[Entry]]:  # hot-path
        """Serve ``scan(start, length)`` wholly from cache, else None.

        A hit requires a complete interval covering ``start`` that still
        contains ``length`` entries from ``start`` onward.  Partial
        coverage is a miss (a partial hit would still pay the full
        LSM-tree seek, as the paper notes).
        """
        with self._lock:
            interval = self._intervals.covering(start)
            if interval is None:
                self.stats.misses += 1
                return None
            keys = self._keys
            lo = bisect_left(keys, start)
            window = keys[lo : lo + length] if length > 0 else []
            if len(window) < length or (window and window[-1] > interval[1]):
                # Fewer cached entries than requested before the
                # interval's end: keys beyond the interval are unknown,
                # so this is a miss even though a prefix was covered.
                self.stats.misses += 1
                return None
            values = self._values
            result = [(key, values[key]) for key in window]
            record_access = (
                values.move_to_end if self._policy is None else self._policy.record_access
            )
            for key in window:
                record_access(key)
            self.stats.hits += 1
            self.range_hits += 1
            return result

    def insert_range(
        self, start: str, entries: List[Entry], admit_count: Optional[int] = None
    ) -> int:  # hot-path
        """Admit a scan result (optionally only its first ``admit_count``).

        ``entries`` must be the scan's result in key order; ``start`` is
        the scan's requested start key, which anchors the complete
        interval (all database keys in ``[start, last-admitted-key]``
        are in ``entries``).  Returns the number of entries admitted.
        An empty admission — ``admit_count`` of 0, or an entry charge
        above the whole budget — counts one rejection and records no
        interval: an interval over keys that are not resident would
        serve scans that skip live keys.
        """
        with self._lock:
            if admit_count is None:
                admit_count = len(entries)
            admit_count = max(0, min(admit_count, len(entries)))
            if admit_count == 0 or self.entry_charge > self._budget:
                self.stats.rejections += 1
                return 0
            admitted = entries if admit_count == len(entries) else entries[:admit_count]
            self._intervals.add(start, admitted[-1][0])
            self._admit(admitted)
            if self._sanitizer is not None:
                self._sanitizer.after_mutation(self)
            return admit_count

    # -- write-path hooks -----------------------------------------------------------

    def on_write(self, key: str, value: str) -> None:  # hot-path
        """Keep the cache coherent with an upstream put.

        Overwrites a resident entry; a *new* key landing inside a
        complete interval must be inserted to preserve completeness, or,
        when its charge exceeds the budget, cut out of the interval.
        """
        with self._lock:
            values = self._values
            if key in values:
                values[key] = value
                if self._policy is None:
                    values.move_to_end(key)
                else:
                    self._policy.record_access(key)
            elif self._intervals.covering(key) is not None:
                if not self._admit(((key, value),)):
                    keys = self._keys
                    self._intervals.split_evicted([key], [bisect_left(keys, key)], keys)
            if self._sanitizer is not None:
                self._sanitizer.after_mutation(self)

    def on_delete(self, key: str) -> None:  # hot-path
        """Keep the cache coherent with an upstream delete.

        Removing the entry preserves interval completeness: the key is
        no longer a live database key, so scans must not return it.
        """
        with self._lock:
            values = self._values
            if key in values:
                del values[key]
                keys = self._keys
                del keys[bisect_left(keys, key)]
                self._used -= self.entry_charge
                if self._policy is not None:
                    self._policy.record_remove(key)
                self.stats.invalidations += 1
            if self._sanitizer is not None:
                self._sanitizer.after_mutation(self)

    # -- internals -----------------------------------------------------------

    def _admit(self, pairs: Sequence[Entry]) -> int:  # hot-path
        """Make ``pairs`` (ascending by key) resident, then evict to fit.

        Recency updates (a ``move_to_end``, or the policy's insert or
        access call) and stats run once per pair in ``pairs`` order, as
        one insert per pair would make them; the new keys enter the key
        array with one slice assignment, which for a single key is
        :func:`bisect.insort`.  Returns ``len(pairs)``, or 0 — one
        rejection per pair — when one entry's charge exceeds the budget.
        """
        if self.entry_charge > self._budget:
            self.stats.rejections += len(pairs)
            return 0
        values = self._values
        policy = self._policy
        touch: Callable[[str], None]
        record_insert: Optional[Callable[[str], None]]
        if policy is None:
            touch, record_insert = values.move_to_end, None
        else:
            touch, record_insert = policy.record_access, policy.record_insert
        new: List[str] = []
        for key, value in pairs:
            if key in values:
                touch(key)
            else:
                if record_insert is not None:
                    record_insert(key)
                new.append(key)
            values[key] = value
        if new:
            keys = self._keys
            lo = bisect_left(keys, new[0])
            hi = bisect_right(keys, new[-1], lo)
            keys[lo:hi] = sorted(keys[lo:hi] + new)
            self._used += len(new) * self.entry_charge
            self.stats.insertions += len(new)
        self._evict_to_fit()
        return len(pairs)

    def _evict_to_fit(self) -> int:  # hot-path
        """Evict until the budget holds; returns the number evicted.

        Charges are uniform, so the victim count is known up front: the
        value map's oldest entries under built-in LRU, or one
        :meth:`~EvictionPolicy.evict` call to the policy (learning
        policies still see one ``select_victim`` / ``record_evict`` pair
        per victim).  The victims then leave the array and the complete
        intervals together.
        """
        excess = self._used - self._budget
        if excess <= 0:
            return 0
        keys = self._keys
        charge = self.entry_charge
        count = min(len(keys), -(-excess // charge))
        values = self._values
        if self._policy is None:
            popitem = values.popitem
            victims = [popitem(False)[0] for _ in range(count)]
        else:
            victims = self._policy.evict(count)
            for victim in victims:
                del values[victim]
        victims.sort()
        # Remove the victims in ascending order.  Each one's index is then
        # where it sits among the keys that stay, and a victim adjacent to
        # the previous one has just slid into that same index.
        cuts: List[int] = []
        cut = 0
        for victim in victims:
            if keys[cut] is not victim:
                cut = bisect_left(keys, victim, cut)
            del keys[cut]
            cuts.append(cut)
        self._used -= count * charge
        self.stats.evictions += count
        self._intervals.split_evicted(victims, cuts, keys)
        return count

    # -- diagnostics -----------------------------------------------------------

    @property
    def num_complete_intervals(self) -> int:
        """Number of tracked complete intervals."""
        return len(self._intervals)

    def complete_intervals(self) -> List[Tuple[str, str]]:
        """Copy of the complete-interval list (diagnostics/tests)."""
        return self._intervals.intervals()

    @_locked
    def resident_keys(self) -> List[str]:
        """All cached keys in order (diagnostics/sanitizer)."""
        return list(self._keys)

    @_locked
    def clear(self) -> None:
        """Drop all entries and intervals."""
        if self._policy is not None:
            record_remove = self._policy.record_remove
            for key in self._keys:
                record_remove(key)
        self._used -= len(self._keys) * self.entry_charge
        self._keys.clear()
        self._values.clear()
        self._intervals.clear()

    # -- sanitizer protocol -----------------------------------------------------

    @_locked
    def check_invariants(self) -> None:
        """Sorted key array, array/map agreement, bytes, intervals, and an
        explicit policy's agreement with the key array."""
        keys = self._keys
        values = self._values
        for i in range(1, len(keys)):
            if keys[i - 1] >= keys[i]:
                raise InvariantError(
                    f"RangeCache key array out of order at {i}: "
                    f"{keys[i - 1]!r} >= {keys[i]!r}"
                )
        if len(keys) != len(values):
            raise InvariantError(
                f"RangeCache key array/value map length drift: "
                f"{len(keys)} keys, {len(values)} values"
            )
        for key in keys:
            if key not in values:
                raise InvariantError(
                    f"RangeCache key array holds {key!r} with no value"
                )
        expected = len(keys) * self.entry_charge
        if expected != self._used:
            raise InvariantError(
                f"RangeCache byte accounting drift: {len(keys)} "
                f"entries x charge {self.entry_charge} = {expected} != "
                f"used_bytes {self._used}"
            )
        if self._used > self._budget:
            raise InvariantError(
                f"RangeCache over budget at rest: used_bytes {self._used} "
                f"> budget_bytes {self._budget}"
            )
        self._intervals.check_invariants()
        if self._policy is not None:
            check_policy_residency("RangeCache policy/key-array", self._policy, keys)
