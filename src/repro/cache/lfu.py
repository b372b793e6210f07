"""Least-frequently-used eviction policy with LRU tie-breaking.

Implemented with frequency buckets (the O(1) LFU construction): each
frequency maps to an ordered dict of keys, and a running minimum tracks
the lowest non-empty bucket.  Ties inside a bucket evict the least
recently used key; Cacheus' CR-LFU subclass evicts the most recent one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, Hashable, TypeVar

from repro.cache.base import EvictionPolicy
from repro.errors import CacheError, InvariantError

K = TypeVar("K", bound=Hashable)


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
        """Frequency-map/bucket cross-consistency.

        Every tracked key sits in exactly the bucket its frequency
        names, no empty bucket lingers, and ``min_freq`` points at the
        lowest non-empty bucket.
        """
        name = type(self).__name__
        freq = self._freq
        total = 0
        for f, bucket in self._buckets.items():
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
            lowest = min(self._buckets)
            if self._min_freq != lowest:
                raise InvariantError(
                    f"{name}: min_freq {self._min_freq} != lowest non-empty "
                    f"bucket {lowest}"
                )
        elif self._min_freq != 0:
            raise InvariantError(
                f"{name}: empty policy but min_freq is {self._min_freq}"
            )

    def __len__(self) -> int:
        return len(self._freq)

    def __contains__(self, key: K) -> bool:
        return key in self._freq
