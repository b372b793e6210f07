"""LeCaR: learning cache replacement with regret minimization.

Reimplementation of LeCaR (Vietri et al., HotStorage'18), used by the
paper as the "Range Cache + naive ML eviction" baseline.  LeCaR keeps
two expert policies — LRU and LFU — with a probability weight each.
Evictions sample an expert by weight; the victim goes into that
expert's ghost history.  When a missed key is found in a history, the
expert that evicted it is penalized multiplicatively
(``w *= exp(-lr * d^age)``, weights renormalized), steering future
evictions toward the expert that would not have made the mistake.

Adapted to the container/policy interface: the regret update runs in
:meth:`record_insert`, which the container invokes on every admitted
miss (the baselines admit all misses, so this observes every miss).
:class:`~repro.cache.cacheus.CacheusPolicy` is the same mixture with
other experts and an adaptive learning rate, and subclasses this one.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from random import Random
from typing import Generic, Hashable, Optional, Tuple, TypeVar

from repro.cache.base import EvictionPolicy
from repro.cache.lfu import LFUPolicy
from repro.cache.lru import LRUPolicy
from repro.errors import CacheError, InvariantError

K = TypeVar("K", bound=Hashable)

#: Multiplicative penalty scale (paper default 0.45); Cacheus starts its
#: hill-climbed rate here.
LEARNING_RATE = 0.45
#: Regret discount: ``d = DISCOUNT_BASE ** (1 / history_size)`` per time
#: step (paper default 0.005).
DISCOUNT_BASE = 0.005


class LeCaRPolicy(EvictionPolicy[K], Generic[K]):
    """Regret-weighted mixture of LRU and LFU experts.

    Parameters
    ----------
    history_size:
        Ghost-list capacity per expert; the original sizes it to the
        cache's entry capacity.  Also sets the regret discount horizon.
    seed:
        RNG seed for expert sampling.
    """

    def __init__(
        self,
        history_size: int = 512,
        seed: int = 0,
    ) -> None:
        if history_size <= 0:
            raise CacheError("history_size must be positive")
        self._experts: Tuple[EvictionPolicy[K], EvictionPolicy[K]] = (
            LRUPolicy(),
            LFUPolicy(),
        )
        self._history_size = history_size
        self._lr = LEARNING_RATE
        self._discount = DISCOUNT_BASE ** (1.0 / history_size)
        self._rng = Random(seed)
        self._weights = [0.5, 0.5]
        self._time = 0
        # ghost: key -> (expert index, eviction time)
        self._history: "OrderedDict[K, Tuple[int, int]]" = OrderedDict()
        self._pending_expert: Optional[int] = None

    @property
    def weights(self) -> Tuple[float, float]:
        """Current weights of the two experts, in expert order."""
        return self._weights[0], self._weights[1]

    @property
    def learning_rate(self) -> float:
        """Current multiplicative penalty scale."""
        return self._lr

    def _note_op(self, miss: bool) -> None:
        """Per-operation hook, run before any regret update (none here)."""

    def _insert_experts(self, key: K, from_history: bool) -> None:
        for expert in self._experts:
            expert.record_insert(key)

    def record_insert(self, key: K) -> None:
        self._time += 1
        self._note_op(miss=True)
        ghost = self._history.pop(key, None)
        if ghost is not None:
            expert, evicted_at = ghost
            regret = self._discount ** (self._time - evicted_at)
            self._weights[expert] *= math.exp(-self._lr * regret)
            total = self._weights[0] + self._weights[1]
            self._weights = [w / total for w in self._weights]
        self._insert_experts(key, ghost is not None)

    def record_access(self, key: K) -> None:
        self._time += 1
        self._note_op(miss=False)
        for expert in self._experts:
            expert.record_access(key)

    def select_victim(self) -> K:
        expert = 0 if self._rng.random() < self._weights[0] else 1
        self._pending_expert = expert
        return self._experts[expert].select_victim()

    def record_evict(self, key: K) -> None:
        expert = self._pending_expert if self._pending_expert is not None else 0
        self._pending_expert = None
        for policy in self._experts:
            policy.record_evict(key)
        self._history[key] = (expert, self._time)
        while len(self._history) > self._history_size:
            self._history.popitem(last=False)

    def record_remove(self, key: K) -> None:
        # Invalidation is not an expert mistake: no ghost entry.
        self._pending_expert = None
        for expert in self._experts:
            expert.record_remove(key)

    def check_invariants(self) -> None:
        """Expert sync, normalized weights, and bounded ghost history."""
        name = type(self).__name__
        first, second = self._experts
        if len(first) != len(second):
            raise InvariantError(
                f"{name} experts diverged: {type(first).__name__} tracks "
                f"{len(first)} keys, {type(second).__name__} tracks {len(second)}"
            )
        total = self._weights[0] + self._weights[1]
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise InvariantError(f"{name} weights not normalized: sum is {total!r}")
        if min(self._weights) < 0.0:
            raise InvariantError(f"{name} negative expert weight: {self._weights!r}")
        if len(self._history) > self._history_size:
            raise InvariantError(
                f"{name} ghost history holds {len(self._history)} entries, "
                f"capacity is {self._history_size}"
            )
        first.check_invariants()
        second.check_invariants()

    def __len__(self) -> int:
        return len(self._experts[0])

    def __contains__(self, key: K) -> bool:
        return key in self._experts[0]
