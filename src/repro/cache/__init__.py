"""Cache substrate: eviction policies, sketches, and the LSM cache zoo.

Building blocks
---------------
* :mod:`repro.cache.base` — the one byte-budgeted container under every
  cache below (LRU by its own order, or driven by a pluggable policy)
  and the policy interface.
* :mod:`repro.cache.lru` / :mod:`lfu` / :mod:`clock` — classic policies.
* :mod:`repro.cache.arc` — Adaptive Replacement Cache (AC-Key heritage).
* :mod:`repro.cache.lecar` / :mod:`cacheus` — learning-based policies
  used as the paper's "naive RL eviction" baselines.
* :mod:`repro.cache.sketch` — decaying Count-Min sketch (TinyLFU-style).
* :mod:`repro.cache.admission` — frequency admission for point lookups
  and partial admission for scans (the paper's ``a``/``b`` policy).

LSM-facing caches
-----------------
* :mod:`repro.cache.block_cache` — RocksDB-style block cache.
* :mod:`repro.cache.kv_cache` — point-lookup result cache (row cache).
* :mod:`repro.cache.range_cache` — result-based cache: the container
  plus a sorted key array with complete-interval tracking (Range Cache
  reimplementation).
* :mod:`repro.cache.tier2` — the fleet-shared L2: a budgeted container
  over ARC with a reuse filter in front of admission.
"""

from repro.cache.base import BudgetedCache, CacheStats, EvictionPolicy
from repro.cache.block_cache import BlockCache
from repro.cache.kv_cache import KVCache
from repro.cache.range_cache import RangeCache

__all__ = [
    "BudgetedCache",
    "CacheStats",
    "EvictionPolicy",
    "BlockCache",
    "KVCache",
    "RangeCache",
]
