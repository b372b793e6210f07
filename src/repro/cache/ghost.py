"""Reusable bounded ghost list for recency/frequency history.

ARC-family policies (Megiddo & Modha, FAST'03) remember *recently
evicted* keys in ghost lists: a hit on a ghost is evidence the resident
list it shadows was sized too small, which is the signal that steers the
adaptive target.  The same structure is the promotion signal for the
fleet-shared second cache tier (:mod:`repro.cache.tier2`): a block whose
ghost is re-demanded has proven reuse and earns admission.

A :class:`GhostList` is a bounded, insertion-ordered set of keys — no
values, only identity and order — trimmed FIFO at capacity.  Extracted
from the private ``B1``/``B2`` bookkeeping :class:`~repro.cache.arc.ARCPolicy`
used to carry inline, so ARC and tier2 share one audited implementation
instead of two copies.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Iterator, KeysView, TypeVar

from repro.errors import CacheError, InvariantError

K = TypeVar("K", bound=Hashable)


class GhostList(Generic[K]):
    """Bounded insertion-ordered key history with FIFO trimming.

    Parameters
    ----------
    capacity:
        Maximum keys remembered; recording beyond it drops the oldest.
    """

    __slots__ = ("_capacity", "_keys")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise CacheError("GhostList capacity must be positive")
        self._capacity = capacity
        self._keys: "OrderedDict[K, None]" = OrderedDict()

    @property
    def capacity(self) -> int:
        """Maximum keys this ghost list remembers."""
        return self._capacity

    def record(self, key: K) -> None:
        """Remember ``key`` as most recent, trimming the oldest to fit."""
        self._keys[key] = None
        self._keys.move_to_end(key)
        while len(self._keys) > self._capacity:
            self._keys.popitem(last=False)

    def discard(self, key: K) -> bool:
        """Forget ``key``; returns whether it was remembered."""
        if key in self._keys:
            del self._keys[key]
            return True
        return False

    def keys(self) -> "KeysView[K]":
        """Remembered keys, oldest first (a live view)."""
        return self._keys.keys()

    def __contains__(self, key: K) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[K]:
        return iter(self._keys)

    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.InvariantError` on corrupt state."""
        if self._capacity <= 0:
            raise InvariantError(
                f"GhostList capacity {self._capacity} must be positive"
            )
        if len(self._keys) > self._capacity:
            raise InvariantError(
                f"GhostList over capacity: {len(self._keys)} keys remembered "
                f"for a bound of {self._capacity}"
            )
