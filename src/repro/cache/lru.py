"""Least-recently-used eviction policy.

The paper's baseline caches (RocksDB block cache, KV cache, vanilla
Range Cache) do not use this class: each is a
:class:`~repro.cache.base.BudgetedCache` built without a policy, LRU by
the order of the container's own value map.  ``LRUPolicy`` serves the
rest: it is one of LeCaR's two
experts, callers that pass an LRU policy explicitly
(``BudgetedCache(budget, charge, LRUPolicy())``,
``RangeCache(policy=LRUPolicy())``), and the tests' reference for those
built-in orders.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

from repro.cache.base import EvictionPolicy
from repro.errors import CacheError

K = TypeVar("K", bound=Hashable)


class LRUPolicy(EvictionPolicy[K], Generic[K]):
    """Classic LRU over resident keys."""

    def __init__(self) -> None:
        self._order: "OrderedDict[K, None]" = OrderedDict()

    def record_insert(self, key: K) -> None:  # hot-path
        order = self._order
        if key in order:
            order.move_to_end(key)
        else:
            order[key] = None  # new keys append at the end already

    def record_access(self, key: K) -> None:  # hot-path
        # Hits vastly outnumber misses here, so try the move directly
        # instead of paying a containment probe on every access.
        try:
            self._order.move_to_end(key)
        except KeyError:
            pass

    def select_victim(self) -> K:
        if not self._order:
            raise CacheError("LRU policy has no resident keys")
        return next(iter(self._order))

    def record_evict(self, key: K) -> None:
        self._order.pop(key, None)

    def record_remove(self, key: K) -> None:
        self._order.pop(key, None)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: K) -> bool:
        return key in self._order
