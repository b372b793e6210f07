"""Requests, per-shard sub-requests, and bounded admission queues.

A client request targets one shard (points, writes) or fans out to
several (scatter-gather scans); each shard-level unit of work is a
:class:`SubRequest` sitting in that shard's bounded :class:`RequestQueue`.
Admission is all-or-nothing per request: if any target queue is full the
whole request is *shed* — counted against both the tenant and the full
queue, never silently dropped.

Two further exits joined admission-time shedding with the resilience
layer, both equally accounted:

* **deadline expiry** — a request can carry a deadline; sub-requests
  whose wait has already blown it are dropped *at dequeue* (executing
  them would burn shard time on an answer the client gave up on), and
* **crash drain** — when a shard executor dies, everything waiting in
  its queue is drained and the affected requests fail over or fail fast.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.errors import CacheError, ConfigError, InvariantError
from repro.lsm.block import Entry
from repro.sanitize import Sanitized
from repro.workloads.generator import Operation


class Request:
    """One client-issued operation, possibly fanned out across shards."""

    __slots__ = (
        "seq",
        "tenant",
        "op",
        "arrival_us",
        "remaining",
        "parts",
        "deadline_us",
        "done",
        "parts_dropped",
    )

    def __init__(
        self,
        seq: int,
        tenant: str,
        op: Operation,
        arrival_us: float,
        fanout: int,
        deadline_us: float = 0.0,
    ) -> None:
        self.seq = seq
        self.tenant = tenant
        self.op = op
        self.arrival_us = arrival_us
        #: Sub-requests still in flight; the request completes at zero.
        self.remaining = fanout
        #: Per-shard scan results awaiting the scatter-gather merge.
        self.parts: Optional[List[List[Entry]]] = [] if op.kind == "scan" else None
        #: Absolute latest useful completion time (0 = no deadline).
        self.deadline_us = deadline_us
        #: Set once the request has been answered (normally, partially,
        #: or by a winning hedge); late sub-results are then discarded.
        self.done = False
        #: Sub-requests lost to crashes, breakers, or expiry.
        self.parts_dropped = 0

    def expired(self, now_us: float) -> bool:
        """Whether ``now_us`` is past this request's deadline."""
        return bool(self.deadline_us) and now_us > self.deadline_us


class SubRequest:
    """The unit of work one shard's server queues and executes."""

    __slots__ = ("request", "shard", "op", "enqueue_us", "start_us", "epoch")

    def __init__(
        self,
        request: Request,
        shard: int,
        op: Operation,
        enqueue_us: float,
        epoch: int = 0,
    ) -> None:
        self.request = request
        self.shard = shard
        self.op = op
        self.enqueue_us = enqueue_us
        #: Set when service begins; queue wait = start - enqueue.
        self.start_us = 0.0
        #: Shard incarnation this sub was issued against; a crash bumps
        #: the shard's epoch, marking in-flight results as dead.
        self.epoch = epoch


class RequestQueue(Sanitized):
    """Bounded FIFO of sub-requests in front of one shard's server.

    ``capacity`` is the queue's admission budget: when it is full, new
    requests are rejected (load shedding) and the rejection is counted —
    backpressure is visible in the stats, never a silent drop.
    """

    __slots__ = (
        "shard_id",
        "capacity",
        "_items",
        "accepted",
        "served",
        "rejected",
        "expired",
        "drained",
        "peak_depth",
    )

    def __init__(self, shard_id: int, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigError(f"queue capacity must be positive, got {capacity}")
        super().__init__()
        self.shard_id = shard_id
        self.capacity = capacity
        self._items: Deque[SubRequest] = deque()
        self.accepted = 0
        self.served = 0
        self.rejected = 0
        #: Sub-requests dropped at dequeue because their deadline passed.
        self.expired = 0
        #: Sub-requests drained by a shard crash.
        self.drained = 0
        self.peak_depth = 0

    def __len__(self) -> int:
        """Sub-requests currently waiting (excludes the one in service)."""
        return len(self._items)

    def has_room(self) -> bool:
        """Whether one more sub-request can be admitted."""
        return len(self._items) < self.capacity

    def note_rejected(self) -> None:
        """Account one shed request that targeted this full queue."""
        self.rejected += 1
        self._after_mutation()

    def push(self, sub: SubRequest) -> None:
        """Admit a sub-request; the caller must have checked room."""
        if len(self._items) >= self.capacity:
            raise CacheError(
                f"shard {self.shard_id} queue overflow: push beyond "
                f"capacity {self.capacity}"
            )
        self._items.append(sub)
        self.accepted += 1
        if len(self._items) > self.peak_depth:
            self.peak_depth = len(self._items)
        self._after_mutation()

    def pop_live(
        self, now_us: float
    ) -> Tuple[Optional[SubRequest], List[SubRequest]]:
        """Dequeue the oldest *unexpired* sub-request.

        Sub-requests whose deadline has already passed while queued are
        dropped here — charging their wait against the deadline — and
        returned so the caller can account the request-level failure.
        Returns ``(live_sub_or_None, expired_subs)``.
        """
        dropped: List[SubRequest] = []
        while self._items:
            sub = self._items.popleft()
            if sub.request.expired(now_us) and not sub.request.done:
                self.expired += 1
                dropped.append(sub)
                continue
            self.served += 1
            self._after_mutation()
            return sub, dropped
        if dropped:
            self._after_mutation()
        return None, dropped

    def drain(self) -> List[SubRequest]:
        """Remove everything waiting (shard crash); returns the victims."""
        victims = list(self._items)
        self._items.clear()
        self.drained += len(victims)
        if victims:
            self._after_mutation()
        return victims

    # -- sanitizer protocol -----------------------------------------------------

    def check_invariants(self) -> None:
        """Depth bound plus flow conservation across all four exits."""
        depth = len(self._items)
        if depth > self.capacity:
            raise InvariantError(
                f"RequestQueue shard {self.shard_id}: depth {depth} exceeds "
                f"capacity {self.capacity}"
            )
        if self.accepted - self.served - self.expired - self.drained != depth:
            raise InvariantError(
                f"RequestQueue shard {self.shard_id}: flow imbalance — "
                f"accepted {self.accepted} - served {self.served} - "
                f"expired {self.expired} - drained {self.drained} != "
                f"depth {depth}"
            )
        if self.peak_depth < depth or self.peak_depth > self.capacity:
            raise InvariantError(
                f"RequestQueue shard {self.shard_id}: peak depth "
                f"{self.peak_depth} inconsistent with depth {depth} / "
                f"capacity {self.capacity}"
            )
