"""Cache substrate: eviction policies, sketches, and the LSM cache zoo.

Building blocks
---------------
* :mod:`repro.cache.base` — the LRU container, the budgeted container
  for pluggable policies, and the policy interface.
* :mod:`repro.cache.lru` / :mod:`lfu` / :mod:`clock` — classic policies.
* :mod:`repro.cache.arc` — Adaptive Replacement Cache (AC-Key heritage).
* :mod:`repro.cache.lecar` / :mod:`cacheus` — learning-based policies
  used as the paper's "naive RL eviction" baselines.
* :mod:`repro.cache.sketch` — decaying Count-Min sketch (TinyLFU-style).
* :mod:`repro.cache.admission` — frequency admission for point lookups
  and partial admission for scans (the paper's ``a``/``b`` policy).

LSM-facing caches
-----------------
* :mod:`repro.cache.block_cache` — RocksDB-style sharded block cache.
* :mod:`repro.cache.kv_cache` — point-lookup result cache (row cache).
* :mod:`repro.cache.range_cache` — result-based cache over a sorted key
  array with complete-interval tracking (Range Cache reimplementation).
"""

from repro.cache.base import BudgetedCache, CacheStats, EvictionPolicy, LRUCache
from repro.cache.block_cache import BlockCache
from repro.cache.kv_cache import KVCache
from repro.cache.range_cache import RangeCache

__all__ = [
    "BudgetedCache",
    "CacheStats",
    "LRUCache",
    "EvictionPolicy",
    "BlockCache",
    "KVCache",
    "RangeCache",
]
