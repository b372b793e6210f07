"""Adaptive Replacement Cache (ARC) eviction policy.

ARC (Megiddo & Modha, FAST'03) is the policy AC-Key builds its
hierarchical caching on; we provide it as an optional policy for the
block and KV caches.  Resident keys live in T1 (seen once recently) or
T2 (seen at least twice); ghost lists B1/B2 remember recent evictions
and steer the adaptive target ``p`` (the desired size of T1).

This implementation adapts ARC to the container/policy split: ghost-list
consultation happens in :meth:`record_insert` (which the container calls
on every admitted miss), and :meth:`select_victim` implements REPLACE.
Sizes are tracked in keys rather than bytes; for the fixed-size entries
used in this simulator the two are proportional.  The ghost bookkeeping
is the shared :class:`~repro.cache.ghost.GhostList`.

This is the repo's one T1/T2/B1/B2 state machine: the fleet L2 tier
(:mod:`repro.cache.tier2`) is a
:class:`~repro.cache.base.BudgetedCache` over this policy, with an
admission filter in front that reads :meth:`ARCPolicy.ghost_of`.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Generic, Hashable, Iterator, Optional, TypeVar

from repro.cache.base import EvictionPolicy
from repro.cache.ghost import GhostList
from repro.errors import CacheError, InvariantError

K = TypeVar("K", bound=Hashable)


class ARCPolicy(EvictionPolicy[K], Generic[K]):
    """ARC with T1/T2 resident lists and B1/B2 ghost lists.

    Parameters
    ----------
    capacity_hint:
        Expected resident capacity ``c`` in keys; bounds the ghost lists
        and scales the adaptation of ``p``.
    """

    def __init__(self, capacity_hint: int = 1024) -> None:
        if capacity_hint <= 0:
            raise CacheError("capacity_hint must be positive")
        self._c = capacity_hint
        self._p = 0.0  # adaptive target size of T1
        self._t1: "OrderedDict[K, None]" = OrderedDict()
        self._t2: "OrderedDict[K, None]" = OrderedDict()
        self._b1: GhostList[K] = GhostList(capacity_hint)
        self._b2: GhostList[K] = GhostList(capacity_hint)

    @property
    def p(self) -> float:
        """Current adaptive target for |T1|."""
        return self._p

    def resize(self, capacity: int) -> None:
        """Rebound the resident capacity ``c`` and clamp ``p`` to it.

        The ghost lists keep the bound they were built with.
        """
        if capacity <= 0:
            raise CacheError("capacity must be positive")
        self._c = capacity
        self._p = min(self._p, float(capacity))

    def tracked_keys(self) -> Iterator[K]:
        """Every key with state here: residents first, then ghosts."""
        return chain(self._t1, self._t2, self._b1, self._b2)

    def ghost_of(self, key: K) -> Optional[str]:
        """The ghost list that remembers ``key`` (``"B1"``/``"B2"``), or
        None; changes nothing."""
        if key in self._b1:
            return "B1"
        if key in self._b2:
            return "B2"
        return None

    def record_insert(self, key: K) -> None:
        if key in self._b1:
            # Ghost hit in B1: T1 was evicted too eagerly -> grow p.
            delta = max(1.0, len(self._b2) / max(1, len(self._b1)))
            self._p = min(float(self._c), self._p + delta)
            self._b1.discard(key)
            self._t2[key] = None
        elif key in self._b2:
            # Ghost hit in B2 -> shrink p.
            delta = max(1.0, len(self._b1) / max(1, len(self._b2)))
            self._p = max(0.0, self._p - delta)
            self._b2.discard(key)
            self._t2[key] = None
        else:
            self._t1[key] = None

    def record_access(self, key: K) -> None:
        if key in self._t1:
            del self._t1[key]
            self._t2[key] = None
        elif key in self._t2:
            self._t2.move_to_end(key)

    def select_victim(self) -> K:
        if not self._t1 and not self._t2:
            raise CacheError("ARC policy has no resident keys")
        # REPLACE: evict from T1 when it exceeds the target p (or T2 empty).
        if self._t1 and (len(self._t1) > self._p or not self._t2):
            return next(iter(self._t1))
        return next(iter(self._t2))

    def record_evict(self, key: K) -> None:
        if key in self._t1:
            del self._t1[key]
            self._b1.record(key)
        elif key in self._t2:
            del self._t2[key]
            self._b2.record(key)

    def record_remove(self, key: K) -> None:
        # Invalidation: forget entirely, no ghost (not a policy mistake).
        self._t1.pop(key, None)
        self._t2.pop(key, None)
        self._b1.discard(key)
        self._b2.discard(key)

    def check_invariants(self) -> None:
        """T1/T2/B1/B2 pairwise disjointness, each ghost list's bound, p's range."""
        lists = {
            "T1": self._t1.keys(),
            "T2": self._t2.keys(),
            "B1": self._b1.keys(),
            "B2": self._b2.keys(),
        }
        names = list(lists)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                overlap = lists[a] & lists[b]
                if overlap:
                    raise InvariantError(
                        f"ARCPolicy: {a} and {b} share keys {sorted(map(repr, overlap))[:3]}"
                    )
        self._b1.check_invariants()
        self._b2.check_invariants()
        if not 0.0 <= self._p <= float(self._c):
            raise InvariantError(
                f"ARCPolicy adaptive target p={self._p} outside [0, {self._c}]"
            )

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def __contains__(self, key: K) -> bool:
        return key in self._t1 or key in self._t2
