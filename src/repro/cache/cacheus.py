"""Cacheus: LeCaR's successor with scan- and churn-resistant experts.

Reimplementation of Cacheus (Rodriguez et al., FAST'21) at the fidelity
the AdCache paper uses it: a regret-weighted mixture (like LeCaR) whose
two experts are

* **SR-LRU** — scan-resistant LRU.  Resident keys split into a
  probationary list R (seen once) and a safe list S (re-referenced).
  One-shot scan keys never leave R and are evicted first; keys
  returning from the ghost history are inserted straight into S.
* **CR-LFU** — churn-resistant LFU.  Among the minimum-frequency
  bucket it evicts the *most recently used* key, so under churn the
  same few victims cycle while older keys keep their slots and
  accumulate frequency.

Cacheus also replaces LeCaR's fixed learning rate with a hill-climbing
adaptive rate: after every adaptation window the miss count is compared
with the previous window's, and the learning rate keeps moving in the
direction that reduced misses (reversing otherwise).  That mechanism is
reproduced here in simplified form; the full paper also anneals toward
a restart value, which we omit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Optional, TypeVar

from repro.cache.base import EvictionPolicy
from repro.cache.lecar import LeCaRPolicy
from repro.cache.lfu import LFUPolicy
from repro.errors import CacheError, InvariantError

K = TypeVar("K", bound=Hashable)


class SRLRUPolicy(EvictionPolicy[K], Generic[K]):
    """Scan-resistant LRU with probationary (R) and safe (S) lists."""

    def __init__(self) -> None:
        self._r: "OrderedDict[K, None]" = OrderedDict()
        self._s: "OrderedDict[K, None]" = OrderedDict()

    def record_insert(self, key: K, safe: bool = False) -> None:
        target = self._s if safe else self._r
        target[key] = None
        self._rebalance()

    def record_access(self, key: K) -> None:
        if key in self._r:
            del self._r[key]
            self._s[key] = None
            self._rebalance()
        elif key in self._s:
            self._s.move_to_end(key)

    def _rebalance(self) -> None:
        # Keep S at no more than half the resident keys (rounded up):
        # demote its LRU end back into R as most-recent there, so a
        # demoted key is not the immediate next victim.
        total = len(self._r) + len(self._s)
        while self._s and len(self._s) > (total + 1) // 2:
            key, _ = self._s.popitem(last=False)
            self._r[key] = None

    def select_victim(self) -> K:
        if self._r:
            return next(iter(self._r))
        if self._s:
            return next(iter(self._s))
        raise CacheError("SR-LRU policy has no resident keys")

    def record_evict(self, key: K) -> None:
        self._r.pop(key, None)
        self._s.pop(key, None)

    def record_remove(self, key: K) -> None:
        self._r.pop(key, None)
        self._s.pop(key, None)

    def check_invariants(self) -> None:
        """Probationary and safe lists must stay disjoint.

        (The rebalance bound on |S| is deliberately not asserted: an
        eviction from R shrinks the total without re-running the
        rebalance, so |S| may legitimately exceed it between inserts.)
        """
        overlap = self._r.keys() & self._s.keys()
        if overlap:
            raise InvariantError(
                f"SRLRUPolicy: keys in both R and S: {sorted(map(repr, overlap))[:3]}"
            )

    def __len__(self) -> int:
        return len(self._r) + len(self._s)

    def __contains__(self, key: K) -> bool:
        return key in self._r or key in self._s


class CRLFUPolicy(LFUPolicy[K]):
    """Churn-resistant LFU: min-frequency bucket, most-recent first out."""

    def select_victim(self) -> K:
        if not self._freq:
            raise CacheError("CR-LFU policy has no resident keys")
        bucket = self._buckets[self._min_freq]
        # Churn resistance: sacrifice the *most recent* arrival in the
        # cold bucket so long-resident cold keys can ripen.
        return next(reversed(bucket))


class CacheusPolicy(LeCaRPolicy[K]):
    """Adaptive mixture of SR-LRU and CR-LFU with hill-climbed rate.

    Parameters
    ----------
    history_size:
        Ghost capacity per expert and the learning-rate window length.
    seed:
        RNG seed for expert sampling.
    """

    def __init__(
        self,
        history_size: int = 512,
        seed: int = 0,
    ) -> None:
        super().__init__(history_size, seed)
        self._srlru: SRLRUPolicy[K] = SRLRUPolicy()
        self._experts = (self._srlru, CRLFUPolicy())
        self._lr_direction = 1.0
        # learning-rate window accounting
        self._window_misses = 0
        self._prev_window_misses: Optional[int] = None
        self._ops_in_window = 0

    def _insert_experts(self, key: K, from_history: bool) -> None:
        # A key the cache has recently seen goes straight to the safe list.
        self._srlru.record_insert(key, safe=from_history)
        self._experts[1].record_insert(key)

    def check_invariants(self) -> None:
        """LeCaR's checks plus the learning rate's hill-climbing clamp."""
        if not 0.001 <= self._lr <= 1.0:
            raise InvariantError(
                f"CacheusPolicy learning rate {self._lr} left its "
                f"hill-climbing clamp [0.001, 1.0]"
            )
        super().check_invariants()

    def _note_op(self, miss: bool) -> None:
        self._ops_in_window += 1
        if miss:
            self._window_misses += 1
        if self._ops_in_window >= self._history_size:
            self._adapt_learning_rate()
            self._ops_in_window = 0
            self._prev_window_misses = self._window_misses
            self._window_misses = 0

    def _adapt_learning_rate(self) -> None:
        """Hill climb: keep moving the rate the way that reduced misses."""
        if self._prev_window_misses is None:
            return
        if self._window_misses > self._prev_window_misses:
            self._lr_direction = -self._lr_direction
        self._lr = min(1.0, max(0.001, self._lr * (1.0 + 0.1 * self._lr_direction)))
