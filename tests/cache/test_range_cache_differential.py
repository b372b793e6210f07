"""Sorted-array RangeCache against the per-entry, per-victim reference.

``ReferenceRangeCache`` keeps the algorithm the cache ran before it
moved onto one sorted key array: every admitted entry is inserted on its
own, and eviction draws one victim, removes it, looks up its surviving
neighbours and cuts the covering interval there (``split_around``), then
repeats.  The cache under test instead splices a whole batch into the
array and removes all victims of one eviction in a single pass.

Both run in lock-step under LRU, LeCaR and Cacheus.  After every
operation they must agree on return values, resident keys and values,
complete intervals, :class:`~repro.cache.base.CacheStats`, and every call
made to the eviction policy, in order.

``clear`` follows the container's semantics: one invalidation per
resident entry, and ``record_remove`` in value-map order (insertion
order, since every cache here runs under an explicit policy).
"""

from __future__ import annotations

import operator
from bisect import bisect_left, insort
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import CacheStats, EvictionPolicy
from repro.cache.cacheus import CacheusPolicy
from repro.cache.intervals import IntervalSet
from repro.cache.lecar import LeCaRPolicy
from repro.cache.lru import LRUPolicy
from repro.cache.range_cache import RangeCache

Entry = Tuple[str, str]
CHARGE = 100
KEYS = [f"k{i:02d}" for i in range(48)]


def split_around(
    intervals: IntervalSet, key: str, left: Optional[str], right: Optional[str]
) -> None:
    """Cut the interval covering evicted ``key`` at its surviving neighbours."""
    idx = intervals.index_covering(key)
    if idx is None:
        return
    a, b = intervals._starts[idx], intervals._ends[idx]
    pieces = []
    if left is not None and a <= left:
        pieces.append((a, left))
    if right is not None and right <= b:
        pieces.append((right, b))
    intervals._starts[idx : idx + 1] = [s for s, _ in pieces]
    intervals._ends[idx : idx + 1] = [e for _, e in pieces]


class ReferenceRangeCache:
    """The range cache's per-entry admission and per-victim eviction.

    Rejections follow the current contract: an insert whose charge
    exceeds the budget records no interval, and a covered write that
    cannot be admitted is cut out of its interval.
    """

    def __init__(self, budget_bytes: int, entry_charge: int, policy: EvictionPolicy) -> None:
        self._budget = budget_bytes
        self.entry_charge = entry_charge
        self._policy = policy
        self._keys: List[str] = []
        self._data: Dict[str, str] = {}
        self._intervals = IntervalSet()
        self._used = 0
        self.stats = CacheStats()

    @property
    def used_bytes(self) -> int:
        return self._used

    def resident_keys(self) -> List[str]:
        return list(self._keys)

    def complete_intervals(self) -> List[Tuple[str, str]]:
        return self._intervals.intervals()

    def resize(self, budget_bytes: int) -> int:
        self._budget = budget_bytes
        return self._evict_to_fit()

    def get_point(self, key: str) -> Optional[str]:
        if key in self._data:
            self.stats.hits += 1
            self._policy.record_access(key)
            return self._data[key]
        self.stats.misses += 1
        return None

    def insert_point(self, key: str, value: str) -> bool:
        return self._insert_entry(key, value)

    def insert_points(self, pairs: List[Entry]) -> int:
        if len(pairs) == 1:
            return 1 if self._insert_entry(*pairs[0]) else 0
        inserted = 0
        for key, value in sorted(pairs, key=operator.itemgetter(0)):
            if self._insert_entry(key, value, defer_eviction=True):
                inserted += 1
        self._evict_to_fit()
        return inserted

    def get_range(self, start: str, length: int) -> Optional[List[Entry]]:
        interval = self._intervals.covering(start)
        if interval is None:
            self.stats.misses += 1
            return None
        _, end = interval
        result: List[Entry] = []
        remaining = length
        for key in self._keys[bisect_left(self._keys, start) :]:
            if key > end or remaining <= 0:
                break
            result.append((key, self._data[key]))
            remaining -= 1
        if len(result) < length:
            self.stats.misses += 1
            return None
        for key, _ in result:
            self._policy.record_access(key)
        self.stats.hits += 1
        return result

    def insert_range(
        self, start: str, entries: List[Entry], admit_count: Optional[int] = None
    ) -> int:
        if admit_count is None:
            admit_count = len(entries)
        admit_count = max(0, min(admit_count, len(entries)))
        if admit_count == 0 or self.entry_charge > self._budget:
            self.stats.rejections += 1
            return 0
        admitted = entries[:admit_count]
        for key, value in admitted:
            self._insert_entry(key, value, defer_eviction=True)
        self._intervals.add(start, admitted[-1][0])
        self._evict_to_fit()
        return admit_count

    def on_write(self, key: str, value: str) -> None:
        if key in self._data:
            self._data[key] = value
            self._policy.record_access(key)
        elif self._intervals.covering(key) is not None:
            if not self._insert_entry(key, value):
                split_around(self._intervals, key, None, None)

    def on_delete(self, key: str) -> None:
        if self._drop_entry(key, split_interval=False):
            self.stats.invalidations += 1

    def clear(self) -> None:
        for key in list(self._data):
            self._drop_entry(key, split_interval=False)
            self.stats.invalidations += 1
        self._intervals.clear()

    def _insert_entry(self, key: str, value: str, defer_eviction: bool = False) -> bool:
        if self.entry_charge > self._budget:
            self.stats.rejections += 1
            return False
        if key in self._data:
            self._data[key] = value
            self._policy.record_access(key)
        else:
            insort(self._keys, key)
            self._data[key] = value
            self._used += self.entry_charge
            self._policy.record_insert(key)
            self.stats.insertions += 1
        if not defer_eviction:
            self._evict_to_fit()
        return True

    def _drop_entry(self, key: str, split_interval: bool, evicted: bool = False) -> bool:
        if key not in self._data:
            return False
        idx = bisect_left(self._keys, key)
        del self._keys[idx]
        del self._data[key]
        left = self._keys[idx - 1] if idx else None
        right = self._keys[idx] if idx < len(self._keys) else None
        self._used -= self.entry_charge
        if evicted:
            self._policy.record_evict(key)
            split_around(self._intervals, key, left, right)
            self.stats.evictions += 1
        else:
            self._policy.record_remove(key)
            if split_interval:
                split_around(self._intervals, key, left, right)
        return True

    def _evict_to_fit(self) -> int:
        evicted = 0
        while self._used > self._budget and self._keys:
            self._drop_entry(self._policy.select_victim(), split_interval=True, evicted=True)
            evicted += 1
        return evicted


class CallLog(EvictionPolicy):
    """Delegates to a real policy and logs every call, victims included."""

    def __init__(self, inner: EvictionPolicy, log: List[Tuple[str, str]]) -> None:
        self.inner = inner
        self.log = log

    def record_insert(self, key):
        self.log.append(("insert", key))
        self.inner.record_insert(key)

    def record_access(self, key):
        self.log.append(("access", key))
        self.inner.record_access(key)

    def select_victim(self):
        victim = self.inner.select_victim()
        self.log.append(("select", victim))
        return victim

    def record_evict(self, key):
        self.log.append(("evict", key))
        self.inner.record_evict(key)

    def record_remove(self, key):
        self.log.append(("remove", key))
        self.inner.record_remove(key)

    def __len__(self):
        return len(self.inner)

    def __contains__(self, key):
        return key in self.inner

    def check_invariants(self):
        self.inner.check_invariants()


POLICIES: Dict[str, Callable[[int], EvictionPolicy]] = {
    "lru": lambda seed: LRUPolicy(),
    "lecar": lambda seed: LeCaRPolicy(history_size=6, seed=seed),
    "cacheus": lambda seed: CacheusPolicy(history_size=6, seed=seed),
}


class Pair:
    """The cache under test and the reference, fed identical calls."""

    def __init__(self, policy: str, budget: int) -> None:
        make = POLICIES[policy]
        self.logs: Tuple[list, list] = ([], [])
        self.new = RangeCache(budget, CHARGE, CallLog(make(0), self.logs[0]))
        self.ref = ReferenceRangeCache(budget, CHARGE, CallLog(make(0), self.logs[1]))

    def call(self, method: str, *args):
        got = getattr(self.new, method)(*args)
        want = getattr(self.ref, method)(*args)
        assert got == want, (method, args)
        self.check()

    def check(self) -> None:
        new, ref = self.new, self.ref
        assert new.resident_keys() == ref.resident_keys()
        assert new._data == ref._data
        assert new.complete_intervals() == ref.complete_intervals()
        assert new.stats == ref.stats
        assert new.used_bytes == ref.used_bytes
        assert self.logs[0] == self.logs[1]
        self.new.check_invariants()


def scan_entries(rng: Random) -> Tuple[str, List[Entry]]:
    """A scan result: a sorted run of keys with holes, and its start key."""
    first = rng.randrange(len(KEYS) - 1)
    size = rng.randint(1, min(14, len(KEYS) - first))
    picked = sorted(rng.sample(range(first, len(KEYS)), size))
    start = KEYS[max(0, first - rng.randint(0, 2))]
    return start, [(KEYS[i], f"s{i}.{rng.randrange(10)}") for i in picked]


def drive(pair: Pair, rng: Random, steps: int) -> None:
    """Random interleaving of every RangeCache operation."""
    for _ in range(steps):
        roll = rng.random()
        key = KEYS[rng.randrange(len(KEYS))]
        if roll < 0.14:
            pair.call("get_point", key)
        elif roll < 0.30:
            start = KEYS[rng.randrange(len(KEYS))]
            pair.call("get_range", start, rng.randint(-1, 10))
        elif roll < 0.40:
            pair.call("insert_point", key, f"p{rng.randrange(10)}")
        elif roll < 0.50:
            pairs = [
                (KEYS[rng.randrange(len(KEYS))], f"b{rng.randrange(10)}")
                for _ in range(rng.randint(1, 8))
            ]
            pair.call("insert_points", pairs)
        elif roll < 0.68:
            start, entries = scan_entries(rng)
            admit = rng.choice([None, 0, 1, 3, len(entries), len(entries) + 2])
            pair.call("insert_range", start, entries, admit)
        elif roll < 0.78:
            pair.call("on_write", key, f"w{rng.randrange(10)}")
        elif roll < 0.92:
            # Deleting keys inside an interval leaves stretches, and
            # sometimes whole intervals, with no resident key.
            pair.call("on_delete", key)
        elif roll < 0.995:
            pair.call("resize", rng.choice([0, 50, 150, 250, 800, 1300, 2000, 3000]))
        else:
            pair.call("clear")


# The "-plain" suffix keeps the case ids the walk has always had.
@pytest.mark.parametrize("policy", sorted(POLICIES), ids=lambda p: f"{p}-plain")
@pytest.mark.parametrize("seed", range(4))
def test_lockstep_random_walk(policy, seed):
    rng = Random(seed)
    pair = Pair(policy, budget=rng.choice([600, 1200, 2500]))
    drive(pair, rng, steps=1500)
    assert pair.new.stats.evictions > 0  # the walk reached eviction


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_lockstep_evicts_around_intervals_without_residents(policy):
    """Intervals emptied by deletes survive eviction untouched."""
    pair = Pair(policy, budget=1000)
    pair.call("insert_range", "k00", [(k, "v") for k in KEYS[0:4]])
    pair.call("insert_range", "k10", [(k, "v") for k in KEYS[10:16]])
    for key in KEYS[0:4]:
        pair.call("on_delete", key)
    assert pair.new.complete_intervals() == [("k00", "k03"), ("k10", "k15")]
    pair.call("insert_range", "k20", [(k, "v") for k in KEYS[20:26]])
    pair.call("resize", 300)
    assert ("k00", "k03") in pair.new.complete_intervals()
    pair.call("resize", 0)
    assert pair.new.complete_intervals() == [("k00", "k03")]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(POLICIES)),
    st.integers(min_value=0, max_value=30),
    st.randoms(use_true_random=False),
)
def test_property_lockstep(policy, budget_entries, rng):
    pair = Pair(policy, budget=budget_entries * CHARGE)
    drive(pair, rng, steps=40)


interval_bounds = st.tuples(
    st.integers(min_value=0, max_value=47), st.integers(min_value=0, max_value=6)
).map(lambda t: (KEYS[t[0]], KEYS[min(47, t[0] + t[1])]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(interval_bounds, max_size=8),
    st.sets(st.integers(min_value=0, max_value=47)),
    st.data(),
)
def test_property_split_evicted_matches_split_around(bounds, resident_idx, data):
    """One pass over sorted victims leaves the intervals that evicting
    them one at a time, in any order, leaves."""
    resident = [KEYS[i] for i in sorted(resident_idx)]
    victims = data.draw(
        st.lists(st.sampled_from(resident), unique=True) if resident else st.just([])
    )
    order = data.draw(st.permutations(victims))
    one_pass, sequential = IntervalSet(), IntervalSet()
    for a, b in bounds:
        one_pass.add(a, b)
        sequential.add(a, b)
    survivors = list(resident)
    for victim in order:
        idx = bisect_left(survivors, victim)
        del survivors[idx]
        left = survivors[idx - 1] if idx else None
        right = survivors[idx] if idx < len(survivors) else None
        split_around(sequential, victim, left, right)
    victims.sort()
    one_pass.split_evicted(victims, [bisect_left(survivors, v) for v in victims], survivors)
    assert one_pass.intervals() == sequential.intervals()
    one_pass.check_invariants()
