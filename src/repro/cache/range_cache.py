"""Result-based cache over a sorted key array: the Range Cache.

Reimplementation of Range Cache (Wang et al., ICDE'24) as the paper's
result-caching substrate.  Query results — single keys from point
lookups, runs of adjacent keys from scans — are stored in logical key
order, decoupled from SSTable layout, so compactions never invalidate
them.  The paper asks only for "a sorted structure (e.g., a skip
list)"; here it is one sorted ``list`` of keys searched with
:mod:`bisect`, beside the value map of the
:class:`~repro.cache.base.BudgetedCache` this class extends.  A scan
result enters the array with one slice assignment, and the victims of
one eviction pass leave it together.

Correctness for scans needs more than resident keys: a scan must know
that *no* database key in the requested window is missing from the
cache.  The cache therefore tracks *complete intervals*
(:class:`~repro.cache.intervals.IntervalSet`): a scan starting at
``start`` is a hit only when ``start`` lies in a complete interval and
the requested number of entries is found without leaving it.  Evicting
any entry splits the interval around the evicted key.

Eviction works at single-entry granularity and is the container's:
it owns the budget, the charge, the value map, the stats and the victim
choice.  Built without a policy, the cache is LRU and the value map
*is* the recency order, least recent first.  A policy passed explicitly
(LeCaR and Cacheus form the paper's baseline variants) is told of every
insert, hit, eviction and removal instead.  This class adds only what
the Range Cache needs on top: the sorted key array, the complete
intervals, a lock, and batched admission.  Every mutator, inherited
ones included, keeps the array and the intervals in step with the map.
"""

from __future__ import annotations

import operator
import threading
from bisect import bisect_left, bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cache.base import BudgetedCache, EvictionPolicy
from repro.cache.intervals import IntervalSet
from repro.errors import InvariantError
from repro.lsm.block import Entry
from repro.lsm.options import ENTRY_CHARGE
from repro.obs import names as N
from repro.obs.recorder import NULL_RECORDER, Recorder


#: Stable batch sort key: by key only, so duplicate keys keep arrival
#: order and the last write wins as in a scalar insert loop.
_entry_key = operator.itemgetter(0)


class RangeCache(BudgetedCache[str, str]):
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
    """

    def __init__(
        self,
        budget_bytes: int,
        entry_charge: int = ENTRY_CHARGE,
        policy: Optional[EvictionPolicy[str]] = None,
    ) -> None:
        super().__init__(budget_bytes, entry_charge, policy)
        self._keys: List[str] = []  # resident keys, strictly ascending
        self._intervals = IntervalSet()
        # The paper shards the range cache for multi-client deployments;
        # at simulator scale one re-entrant lock around each entry
        # point gives the same safety.
        self._lock = threading.RLock()
        self.recorder: Recorder = NULL_RECORDER

    def resize(self, budget_bytes: int) -> int:
        """Change capacity, evicting to fit; returns evictions made."""
        with self._lock:
            evicted = super().resize(budget_bytes)
        if evicted and self.recorder.enabled:
            self.recorder.event(
                N.EV_CACHE_EVICT,
                cache="range",
                evicted=evicted,
                budget_bytes=budget_bytes,
            )
        return evicted

    # -- point lookups -----------------------------------------------------------

    def get_point(self, key: str) -> Optional[str]:  # hot-path
        """Serve a point lookup from cache, or None on miss."""
        with self._lock:
            return self.get(key)

    def put(self, key: str, value: str) -> bool:  # hot-path
        """Admit one point-lookup result; False if its charge exceeds
        the budget."""
        with self._lock:
            admitted = self._admit(((key, value),)) > 0
            if self._sanitizer is not None:
                self._sanitizer.after_mutation(self)
            return admitted

    #: The engine's name for :meth:`put`.
    insert_point = put

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
            data = self._data
            result = [(key, data[key]) for key in window]
            record_access = (
                data.move_to_end if self._policy is None else self._policy.record_access
            )
            for key in window:
                record_access(key)
            self.stats.hits += 1
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
            if admit_count == 0 or self.charge > self._budget:
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
            data = self._data
            if key in data:
                data[key] = value
                if self._policy is None:
                    data.move_to_end(key)
                else:
                    self._policy.record_access(key)
            elif self._intervals.covering(key) is not None:
                if not self._admit(((key, value),)):
                    keys = self._keys
                    self._intervals.split_evicted([key], [bisect_left(keys, key)], keys)
            if self._sanitizer is not None:
                self._sanitizer.after_mutation(self)

    def remove(self, key: str) -> bool:  # hot-path
        """Invalidate ``key`` (not an eviction); returns whether present.

        The key leaves the array first, so the container's sampled check
        sees both in step.  No interval is cut: a deleted key is no
        longer a live database key, so scans must not return it.
        """
        with self._lock:
            if key in self._data:
                keys = self._keys
                del keys[bisect_left(keys, key)]
            return super().remove(key)

    def on_delete(self, key: str) -> None:  # hot-path
        """Keep the cache coherent with an upstream delete."""
        self.remove(key)

    def clear(self) -> None:
        """Drop all entries and intervals; each entry counts one
        invalidation, as the container's ``clear`` counts them."""
        with self._lock:
            self._keys.clear()
            self._intervals.clear()
            super().clear()

    # -- internals -----------------------------------------------------------

    def _admit(self, pairs: Sequence[Entry]) -> int:  # hot-path
        """Make ``pairs`` (ascending by key) resident, then evict to fit.

        Recency updates (a ``move_to_end``, or the policy's insert or
        access call) and stats run once per pair in ``pairs`` order, as
        one insert per pair would make them; the new keys enter the key
        array with one slice assignment, which for a single key is
        :func:`bisect.insort`.  Eviction runs once, and only when the new
        keys pushed the cache over budget.  Returns ``len(pairs)``, or 0
        — one rejection per pair — when one entry's charge exceeds the
        budget.
        """
        if self.charge > self._budget:
            self.stats.rejections += len(pairs)
            return 0
        data = self._data
        policy = self._policy
        touch: Callable[[str], None]
        record_insert: Optional[Callable[[str], None]]
        if policy is None:
            touch, record_insert = data.move_to_end, None
        else:
            touch, record_insert = policy.record_access, policy.record_insert
        new: List[str] = []
        for key, value in pairs:
            if key in data:
                touch(key)
            else:
                if record_insert is not None:
                    record_insert(key)
                new.append(key)
            data[key] = value
        if new:
            keys = self._keys
            lo = bisect_left(keys, new[0])
            hi = bisect_right(keys, new[-1], lo)
            keys[lo:hi] = sorted(keys[lo:hi] + new)
            self._used += len(new) * self.charge
            self.stats.insertions += len(new)
            if self._used > self._budget:
                self._evict_to_fit()
        return len(pairs)

    def _evict_to_fit(self) -> List[str]:  # hot-path
        """The container's eviction, then its victims leave the key array
        and the complete intervals together; returns them in key order."""
        victims = super()._evict_to_fit()
        if victims:
            victims.sort()
            keys = self._keys
            # Remove the victims in ascending order.  Each one's index is
            # then where it sits among the keys that stay, and a victim
            # adjacent to the previous one has just slid into that index.
            cuts: List[int] = []
            cut = 0
            for victim in victims:
                if keys[cut] is not victim:
                    cut = bisect_left(keys, victim, cut)
                del keys[cut]
                cuts.append(cut)
            self._intervals.split_evicted(victims, cuts, keys)
        return victims

    # -- diagnostics -----------------------------------------------------------

    @property
    def num_complete_intervals(self) -> int:
        """Number of tracked complete intervals."""
        return len(self._intervals)

    def complete_intervals(self) -> List[Tuple[str, str]]:
        """Copy of the complete-interval list (diagnostics/tests)."""
        return self._intervals.intervals()

    def resident_keys(self) -> List[str]:
        """All cached keys in order (diagnostics/sanitizer)."""
        with self._lock:
            return list(self._keys)

    # -- sanitizer protocol -----------------------------------------------------

    def check_invariants(self) -> None:
        """Sorted key array in step with the value map, then the
        container's checks (bytes, budget, policy), then the intervals."""
        with self._lock:
            keys = self._keys
            data = self._data
            for i in range(1, len(keys)):
                if keys[i - 1] >= keys[i]:
                    raise InvariantError(
                        f"RangeCache key array out of order at {i}: "
                        f"{keys[i - 1]!r} >= {keys[i]!r}"
                    )
            if len(keys) != len(data):
                raise InvariantError(
                    f"RangeCache key array/value map length drift: "
                    f"{len(keys)} keys, {len(data)} values"
                )
            for key in keys:
                if key not in data:
                    raise InvariantError(
                        f"RangeCache key array holds {key!r} with no value"
                    )
            super().check_invariants()
            self._intervals.check_invariants()
