"""Event loop: deterministic ordering over simulated microseconds."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serve.events import EventLoop


class TestScheduling:
    def test_events_dispatch_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.at(30.0, lambda: order.append("c"))
        loop.at(10.0, lambda: order.append("a"))
        loop.at(20.0, lambda: order.append("b"))
        loop.run()
        assert order == ["a", "b", "c"]
        assert loop.now == 30.0

    def test_ties_break_by_schedule_order(self):
        loop = EventLoop()
        order = []
        for tag in ("first", "second", "third"):
            loop.at(5.0, (lambda t: lambda: order.append(t))(tag))
        loop.run()
        assert order == ["first", "second", "third"]

    def test_after_is_relative_to_now(self):
        loop = EventLoop()
        times = []
        loop.at(100.0, lambda: loop.after(50.0, lambda: times.append(loop.now)))
        loop.run()
        assert times == [150.0]

    def test_scheduling_into_the_past_rejected(self):
        loop = EventLoop()
        loop.at(100.0, lambda: None)
        loop.step()
        with pytest.raises(ConfigError):
            loop.at(50.0, lambda: None)
        with pytest.raises(ConfigError):
            loop.after(-1.0, lambda: None)

    def test_step_and_pending(self):
        loop = EventLoop()
        assert loop.step() is False
        loop.at(1.0, lambda: None)
        loop.at(2.0, lambda: None)
        assert loop.step() is True
        assert loop.now == 1.0
        loop.run()
        assert loop.now == 2.0 and loop.step() is False

    def test_events_scheduled_during_dispatch_run(self):
        loop = EventLoop()
        chain = []

        def first():
            chain.append(1)
            loop.after(0.0, lambda: chain.append(2))

        loop.at(10.0, first)
        loop.run()
        assert chain == [1, 2]
        assert loop.now == 10.0
