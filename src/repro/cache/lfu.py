"""Least-frequently-used eviction policy with LRU tie-breaking.

Implemented with frequency buckets (the O(1) LFU construction): each
frequency maps to an ordered dict of keys, and a running minimum tracks
the lowest non-empty bucket.  Ties inside a bucket evict the least
recently used key, which is also what Cacheus' CR-LFU variant refines.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, Hashable, TypeVar

from repro.cache.base import EvictionPolicy
from repro.errors import CacheError, InvariantError

K = TypeVar("K", bound=Hashable)


def check_freq_buckets(
    name: str,
    freq: Dict[K, int],
    buckets: Dict[int, "OrderedDict[K, None]"],
    min_freq: int,
) -> None:
    """Shared frequency/bucket cross-consistency check (LFU and CR-LFU).

    Verifies that every tracked key sits in exactly the bucket its
    frequency names, that no empty bucket lingers, and that ``min_freq``
    points at the lowest non-empty bucket.
    """
    total = 0
    for f, bucket in buckets.items():
        if not bucket:
            raise InvariantError(f"{name}: empty bucket {f} was not pruned")
        total += len(bucket)
        for key in bucket:
            if freq.get(key) != f:
                raise InvariantError(
                    f"{name}: key {key!r} sits in bucket {f} but its "
                    f"frequency is {freq.get(key)}"
                )
    if total != len(freq):
        raise InvariantError(
            f"{name}: buckets hold {total} keys but {len(freq)} are tracked"
        )
    if freq:
        lowest = min(buckets)
        if min_freq != lowest:
            raise InvariantError(
                f"{name}: min_freq {min_freq} != lowest non-empty bucket {lowest}"
            )
    elif min_freq != 0:
        raise InvariantError(f"{name}: empty policy but min_freq is {min_freq}")


class LFUPolicy(EvictionPolicy[K], Generic[K]):
    """Frequency-bucketed LFU; ties broken by least-recent use."""

    def __init__(self) -> None:
        self._freq: Dict[K, int] = {}
        self._buckets: Dict[int, "OrderedDict[K, None]"] = {}
        self._min_freq = 0

    def frequency(self, key: K) -> int:
        """Current frequency count of a resident key (0 if absent)."""
        return self._freq.get(key, 0)

    def _bucket(self, freq: int) -> "OrderedDict[K, None]":
        bucket = self._buckets.get(freq)
        if bucket is None:
            bucket = OrderedDict()
            self._buckets[freq] = bucket
        return bucket

    def record_insert(self, key: K) -> None:
        self._freq[key] = 1
        self._bucket(1)[key] = None
        self._min_freq = 1

    def record_access(self, key: K) -> None:
        freq = self._freq.get(key)
        if freq is None:
            return
        bucket = self._buckets[freq]
        del bucket[key]
        if not bucket:
            del self._buckets[freq]
            if self._min_freq == freq:
                self._min_freq = freq + 1
        self._freq[key] = freq + 1
        self._bucket(freq + 1)[key] = None

    def select_victim(self) -> K:
        if not self._freq:
            raise CacheError("LFU policy has no resident keys")
        bucket = self._buckets[self._min_freq]
        return next(iter(bucket))

    def _drop(self, key: K) -> None:
        freq = self._freq.pop(key, None)
        if freq is None:
            return
        bucket = self._buckets.get(freq)
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self._buckets[freq]
        if freq == self._min_freq and self._freq:
            while self._min_freq not in self._buckets:
                self._min_freq += 1
        if not self._freq:
            self._min_freq = 0

    def record_evict(self, key: K) -> None:
        self._drop(key)

    def record_remove(self, key: K) -> None:
        self._drop(key)

    def check_invariants(self) -> None:
        """Frequency-map/bucket cross-consistency."""
        check_freq_buckets("LFUPolicy", self._freq, self._buckets, self._min_freq)

    def __len__(self) -> int:
        return len(self._freq)

    def __contains__(self, key: K) -> bool:
        return key in self._freq
