"""Bounded request queues: admission budget, shedding, flow invariants."""

from __future__ import annotations

import pytest

from repro import sanitize
from repro.errors import CacheError, ConfigError, InvariantError
from repro.sanitize import Sanitizer
from repro.serve.queueing import Request, RequestQueue, SubRequest
from repro.workloads.generator import Operation


def sub(seq=0, shard=0, t=0.0):
    op = Operation("get", "key000000000000000000001")
    request = Request(seq, "tenant", op, t, fanout=1)
    return SubRequest(request, shard, op, t)


class TestQueue:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            RequestQueue(0, 0)

    def test_fifo_order(self):
        q = RequestQueue(0, 4)
        subs = [sub(seq=i) for i in range(3)]
        for s in subs:
            q.push(s)
        assert [q.pop_live(0.0)[0].request.seq for _ in range(3)] == [0, 1, 2]

    def test_room_and_depth_tracking(self):
        q = RequestQueue(0, 2)
        assert q.has_room()
        q.push(sub(0))
        q.push(sub(1))
        assert not q.has_room()
        assert len(q) == 2
        assert q.peak_depth == 2
        q.pop_live(0.0)
        assert q.has_room()
        assert q.peak_depth == 2  # peak is sticky

    def test_overflow_raises_and_empty_pop_live_returns_none(self):
        q = RequestQueue(3, 1)
        q.push(sub(0))
        with pytest.raises(CacheError):
            q.push(sub(1))
        q.pop_live(0.0)
        assert q.pop_live(0.0) == (None, [])
        assert q.served == 1

    def test_shedding_is_counted_not_silent(self):
        q = RequestQueue(0, 1)
        q.push(sub(0))
        q.note_rejected()
        q.note_rejected()
        assert q.rejected == 2
        assert q.accepted == 1

    def test_flow_conservation_invariant(self):
        q = RequestQueue(0, 8)
        for i in range(5):
            q.push(sub(i))
        for _ in range(2):
            q.pop_live(0.0)
        q.check_invariants()
        assert q.accepted - q.served == len(q)

    def test_corrupted_counters_detected(self):
        q = RequestQueue(0, 2)
        q.push(sub(0))
        q.served = 7  # simulate bookkeeping corruption
        with pytest.raises(InvariantError):
            q.check_invariants()

    def test_corrupted_peak_detected(self):
        q = RequestQueue(0, 2)
        q.push(sub(0))
        q.peak_depth = 0
        with pytest.raises(InvariantError):
            q.check_invariants()

    def test_sampled_sanitizer_hook(self):
        q = RequestQueue(0, 4)
        # Slotted, yet starts on the REPRO_SANITIZE schedule.
        assert (q._sanitizer is None) == (sanitize.from_env() is None)
        q._sanitizer = Sanitizer(1, 0)
        q.push(sub(0))
        q.pop_live(0.0)
        assert q._sanitizer.checks_run >= 2


class TestRequest:
    def test_scan_requests_collect_parts(self):
        op = Operation("scan", "key000000000000000000000", length=4)
        request = Request(0, "t", op, 0.0, fanout=3)
        assert request.parts == []
        assert request.remaining == 3

    def test_point_requests_have_no_parts(self):
        request = Request(0, "t", Operation("get", "k"), 0.0, fanout=1)
        assert request.parts is None


class TestDeadlineAndDrain:
    def _sub_with_deadline(self, seq, deadline_us, t=0.0):
        op = Operation("get", "key000000000000000000001")
        request = Request(seq, "tenant", op, t, fanout=1, deadline_us=deadline_us)
        return SubRequest(request, 0, op, t)

    def test_requests_without_deadline_never_expire(self):
        request = Request(0, "t", Operation("get", "k"), 0.0, fanout=1)
        assert not request.expired(1e12)

    def test_deadline_expiry_is_strict(self):
        request = Request(
            0, "t", Operation("get", "k"), 0.0, fanout=1, deadline_us=100.0
        )
        assert not request.expired(100.0)
        assert request.expired(100.1)

    def test_pop_live_skips_expired_heads(self):
        q = RequestQueue(0, 8)
        q.push(self._sub_with_deadline(0, deadline_us=10.0))
        q.push(self._sub_with_deadline(1, deadline_us=10.0))
        q.push(self._sub_with_deadline(2, deadline_us=500.0))
        live, dropped = q.pop_live(now_us=100.0)
        assert live is not None and live.request.seq == 2
        assert [d.request.seq for d in dropped] == [0, 1]
        assert q.expired == 2
        assert q.served == 1
        q.check_invariants()

    def test_pop_live_on_all_expired_returns_none(self):
        q = RequestQueue(0, 4)
        q.push(self._sub_with_deadline(0, deadline_us=1.0))
        live, dropped = q.pop_live(now_us=50.0)
        assert live is None
        assert len(dropped) == 1
        assert q.expired == 1
        q.check_invariants()

    def test_pop_live_without_deadlines_behaves_like_pop(self):
        q = RequestQueue(0, 4)
        q.push(sub(seq=0))
        q.push(sub(seq=1))
        live, dropped = q.pop_live(now_us=1e9)
        assert live is not None and live.request.seq == 0
        assert dropped == []
        assert q.expired == 0

    def test_done_requests_are_not_double_expired(self):
        q = RequestQueue(0, 4)
        s = self._sub_with_deadline(0, deadline_us=1.0)
        s.request.done = True  # e.g. a hedge already answered it
        q.push(s)
        live, dropped = q.pop_live(now_us=50.0)
        assert live is s
        assert dropped == []

    def test_drain_empties_and_accounts(self):
        q = RequestQueue(0, 8)
        for i in range(3):
            q.push(sub(seq=i))
        victims = q.drain()
        assert [v.request.seq for v in victims] == [0, 1, 2]
        assert q.drained == 3
        assert len(q) == 0
        assert q.drain() == []  # idempotent on empty
        q.check_invariants()

    def test_flow_invariant_covers_all_exits(self):
        q = RequestQueue(0, 8)
        q.push(self._sub_with_deadline(0, deadline_us=1.0))
        q.push(sub(seq=1))
        q.push(sub(seq=2))
        q.pop_live(now_us=10.0)  # expires 0, serves 1
        q.drain()  # drains 2
        assert (q.accepted, q.served, q.expired, q.drained) == (3, 1, 1, 1)
        q.check_invariants()
