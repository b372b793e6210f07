"""Client sessions: open-loop, closed-loop, and scenario-scripted tenants.

An **open-loop** client issues requests on a Poisson process (seeded
exponential inter-arrival times) regardless of completions — the
arrival rate is an offered load, so saturation shows up as queueing and
shed requests, not as a silently slowed client.  A **closed-loop**
client keeps exactly one request in flight and thinks (exponential
think time) between completions, so its throughput adapts to service
latency.  Both draw their operation stream from a deterministic
:class:`~repro.workloads.generator.WorkloadGenerator` and all timing
randomness from a per-session seeded ``Random``.

A **scripted** session (:class:`ScriptedSession`) plays a scenario
schedule: simulated time is divided into phases, each giving the tenant
its own operation stream, op budget, and arrival-rate scale.  Dormant
phases (no budget, or the tenant absent from the phase) make the
session sleep until the phase ends — that is how diurnal waves, flash
crowds, and tenant arrival/churn are expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.obs.metrics import Histogram
from repro.workloads.generator import Operation

#: Client behaviour modes.
MODES = ("open", "closed")

#: Bucket ratio of every serve latency histogram: finer than the obs
#: default, so a reported percentile overstates the exact one by < 15 %.
LATENCY_GROWTH = 1.15

#: :meth:`ClientSession.arrivals`: the ops arriving now, and the
#: absolute sim time of the session's next arrival (None: none).
Arrival = Tuple[List[Operation], Optional[float]]


@dataclass
class TenantConfig:
    """One client's identity, behaviour mode, and timing parameters."""

    name: str
    ops: int
    mode: str = "open"
    #: Open loop: offered load in operations per second.
    arrival_rate_ops_s: float = 1200.0
    #: Closed loop: mean think time between completions, microseconds.
    think_time_us: float = 1000.0

    def __post_init__(self) -> None:
        if self.ops <= 0:
            raise ConfigError(f"tenant {self.name!r}: ops must be positive")
        if self.mode not in MODES:
            raise ConfigError(
                f"tenant {self.name!r}: mode must be one of {MODES}, "
                f"got {self.mode!r}"
            )
        if self.mode == "open" and self.arrival_rate_ops_s <= 0:
            raise ConfigError(
                f"tenant {self.name!r}: open-loop arrival rate must be positive"
            )
        if self.mode == "closed" and self.think_time_us < 0:
            raise ConfigError(
                f"tenant {self.name!r}: think time must be >= 0"
            )


class ClientSession:
    """One tenant's operation stream, timing RNG, and accounting."""

    __slots__ = (
        "config",
        "name",
        "_ops",
        "_rng",
        "issued",
        "completed",
        "rejected",
        "latency",
    )

    def __init__(
        self, config: TenantConfig, ops: Iterator[Operation], seed: int = 0
    ) -> None:
        self.config = config
        self.name = config.name
        self._ops = ops
        self._rng = Random(seed)
        self.issued = 0
        self.completed = 0
        self.rejected = 0
        self.latency = Histogram(growth=LATENCY_GROWTH)

    def next_operation(self) -> Optional[Operation]:
        """The next workload operation, or None when the stream is done."""
        op = next(self._ops, None)
        if op is not None:
            self.issued += 1
        return op

    def next_delay_us(self) -> float:
        """Simulated delay before this client's next issue.

        Open loop: exponential inter-arrival at the configured rate.
        Closed loop: exponential think time (0 when think time is 0).
        """
        if self.config.mode == "open":
            # expovariate(lambda) has mean 1/lambda; rate is per second,
            # the loop runs in microseconds.
            return self._rng.expovariate(self.config.arrival_rate_ops_s / 1e6)
        if self.config.think_time_us <= 0:
            return 0.0
        return self._rng.expovariate(1.0 / self.config.think_time_us)

    def arrivals(self, now_us: float, batch_size: int) -> Arrival:
        """The operations arriving at ``now_us`` and the next arrival time.

        Open-loop sessions emit up to ``batch_size`` ops per arrival and
        schedule the next one regardless of this batch's fate.  A burst
        consumes one inter-arrival delay per op it carries, so the
        offered op rate is the same at every batch size (and
        bit-identical to scalar at batch 1).  Closed sessions stay one
        op per think time, with no next arrival: bursting them would
        multiply the in-flight window, and their next issue follows
        this request's outcome.
        """
        op = self.next_operation()
        if op is None:
            return [], None
        if self.config.mode == "closed":
            return [op], None
        burst = [op]
        while len(burst) < batch_size:
            extra = self.next_operation()
            if extra is None:
                break
            burst.append(extra)
        delay = 0.0
        for _ in burst:
            delay += self.next_delay_us()
        return burst, now_us + delay


@dataclass
class PhaseSlot:
    """One tenant's script for one scenario phase.

    ``stream`` is None for dormant phases; ``ops_left`` counts down as
    the session consumes the phase's budget.
    """

    start_us: float
    end_us: float
    ops_left: int
    rate_scale: float
    stream: Optional[Iterator[Operation]]

    def __post_init__(self) -> None:
        if self.end_us <= self.start_us:
            raise ConfigError(
                f"phase slot must have positive duration, got "
                f"[{self.start_us:g}, {self.end_us:g})"
            )
        if self.ops_left < 0:
            raise ConfigError(f"phase slot ops must be >= 0, got {self.ops_left}")

    @property
    def dormant(self) -> bool:
        """Whether this slot can never issue an operation."""
        return self.stream is None or self.ops_left <= 0 or self.rate_scale <= 0


class ScriptedSession(ClientSession):
    """A tenant driven by a scenario schedule instead of one stream.

    Always open-loop: the offered load is the script, scaled per phase.
    """

    __slots__ = ("slots", "_slot_idx")

    def __init__(
        self, config: TenantConfig, slots: Sequence[PhaseSlot], seed: int = 0
    ) -> None:
        if config.mode != "open":
            raise ConfigError(
                f"tenant {config.name!r}: scripted sessions are open-loop only"
            )
        # No parent stream: arrivals() draws from one stream per slot.
        super().__init__(config, iter(()), seed)
        self.slots: List[PhaseSlot] = list(slots)
        self._slot_idx = 0
        if not self.slots:
            raise ConfigError(f"tenant {config.name!r}: empty phase script")

    def arrivals(self, now_us: float, batch_size: int) -> Arrival:
        """Advance the script to ``now_us`` and decide what happens next.

        One op arrives now and the next follows at the phase-scaled rate;
        or the session is dormant until a phase boundary (always after
        ``now_us``); or the script is done.  ``batch_size`` is ignored.
        """
        while self._slot_idx < len(self.slots):
            slot = self.slots[self._slot_idx]
            if now_us >= slot.end_us:
                self._slot_idx += 1
                continue
            if now_us < slot.start_us:
                return [], slot.start_us
            if slot.dormant:
                return [], slot.end_us
            assert slot.stream is not None
            op = next(slot.stream, None)
            if op is None:
                slot.ops_left = 0
                return [], slot.end_us
            slot.ops_left -= 1
            self.issued += 1
            return [op], now_us + self.next_delay_us()
        return [], None

    def next_delay_us(self) -> float:
        """Exponential inter-arrival delay at the phase-scaled rate."""
        scale = 1.0
        slots, i = self.slots, self._slot_idx
        if i < len(slots) and slots[i].rate_scale > 0:
            scale = slots[i].rate_scale
        rate_per_us = self.config.arrival_rate_ops_s * scale / 1e6
        return self._rng.expovariate(rate_per_us)
