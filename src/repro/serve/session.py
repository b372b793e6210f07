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

    @property
    def mode(self) -> str:
        """``"open"`` or ``"closed"``."""
        return self.config.mode

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


#: ``poll`` outcomes: issue an op now / sleep until a time / stream done.
PollResult = Tuple[str, float, Optional[Operation]]


class ScriptedSession(ClientSession):
    """A tenant driven by a scenario schedule instead of one stream.

    Always open-loop: the offered load is the script, scaled per phase.
    The simulator drives it through :meth:`poll` — which either hands
    over the next operation, asks to sleep until a phase boundary, or
    reports the script exhausted — and spaces issues with
    :meth:`arrival_delay_us` (exponential at the phase-scaled rate).
    """

    __slots__ = ("slots", "_slot_idx")

    def __init__(
        self, config: TenantConfig, slots: Sequence[PhaseSlot], seed: int = 0
    ) -> None:
        if config.mode != "open":
            raise ConfigError(
                f"tenant {config.name!r}: scripted sessions are open-loop only"
            )
        # No parent stream: poll() draws from one stream per slot.
        super().__init__(config, iter(()), seed)
        self.slots: List[PhaseSlot] = list(slots)
        self._slot_idx = 0
        if not self.slots:
            raise ConfigError(f"tenant {config.name!r}: empty phase script")

    @property
    def current_slot(self) -> Optional[PhaseSlot]:
        """The slot the session is in (None once the script is done)."""
        if self._slot_idx >= len(self.slots):
            return None
        return self.slots[self._slot_idx]

    def poll(self, now_us: float) -> PollResult:
        """Advance the script to ``now_us`` and decide what happens next.

        Returns ``("issue", 0, op)`` when an operation should enter the
        system now, ``("sleep", wake_us, None)`` when the session is
        dormant until ``wake_us`` (always > ``now_us``), and
        ``("done", 0, None)`` once every slot is exhausted.
        """
        while self._slot_idx < len(self.slots):
            slot = self.slots[self._slot_idx]
            if now_us >= slot.end_us:
                self._slot_idx += 1
                continue
            if now_us < slot.start_us:
                return ("sleep", slot.start_us, None)
            if slot.dormant:
                return ("sleep", slot.end_us, None)
            assert slot.stream is not None
            op = next(slot.stream, None)
            if op is None:
                slot.ops_left = 0
                return ("sleep", slot.end_us, None)
            slot.ops_left -= 1
            self.issued += 1
            return ("issue", 0.0, op)
        return ("done", 0.0, None)

    def arrival_delay_us(self) -> float:
        """Exponential inter-arrival delay at the phase-scaled rate."""
        scale = 1.0
        slot = self.current_slot
        if slot is not None and slot.rate_scale > 0:
            scale = slot.rate_scale
        rate_per_us = self.config.arrival_rate_ops_s * scale / 1e6
        return self._rng.expovariate(rate_per_us)
