"""Deterministic discrete-event scheduler for the serving simulator.

A binary heap of ``(time_us, seq, action)`` entries over *simulated*
microseconds — the same currency the sim clock's cost model charges.
There is no wall clock anywhere: time only advances when an event is
dispatched, and ties are broken by a monotonically increasing sequence
number, so two runs that schedule the same events in the same order
dispatch them in the same order, byte for byte.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple

from repro.errors import ConfigError

Action = Callable[[], None]


class EventLoop:
    """Minimal deterministic event loop over simulated microseconds."""

    __slots__ = ("_heap", "_seq", "now")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Action]] = []
        self._seq = 0
        #: Current simulated time in microseconds.
        self.now = 0.0

    def at(self, time_us: float, action: Action) -> None:
        """Schedule ``action`` at absolute simulated time ``time_us``."""
        if time_us < self.now:
            raise ConfigError(
                f"cannot schedule into the past: {time_us} < now {self.now}"
            )
        heapq.heappush(self._heap, (time_us, self._seq, action))
        self._seq += 1

    def after(self, delay_us: float, action: Action) -> None:
        """Schedule ``action`` ``delay_us`` simulated microseconds from now."""
        self.at(self.now + delay_us, action)

    def step(self) -> bool:
        """Dispatch the earliest event; False when the heap is empty."""
        if not self._heap:
            return False
        time_us, _seq, action = heapq.heappop(self._heap)
        self.now = time_us
        action()
        return True

    def run(self) -> None:
        """Dispatch until the heap is empty."""
        while self._heap:
            self.step()
