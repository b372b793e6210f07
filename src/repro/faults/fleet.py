"""Seeded fleet-level fault plans: whole-shard crashes for the simulator.

Block-level faults (:mod:`repro.faults.injector`) exercise a *single*
engine's resilience; the serving fleet needs failures one level up — a
shard process dying mid-run, taking its memtable and caches with it.  A
:class:`FleetFaultPlan` is the deterministic schedule of those deaths:
given a config and the shard count, it draws distinct victim shards and
sorted crash times from one seeded generator, so the same seed produces
the same fleet obituary byte for byte.

The plan is *pure data* — the serving simulator schedules each
:class:`ShardCrash` on its discrete-event loop and drives failover
(replica promotion via WAL replay) itself, at the recovery costs
:mod:`repro.serve.resilience` fixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import List

from repro.errors import ConfigError


@dataclass(frozen=True)
class ShardCrash:
    """One scheduled shard death: who dies and when (simulated us)."""

    shard_id: int
    at_us: float


@dataclass
class FleetFaultConfig:
    """Knobs for a seeded fleet fault plan.

    Attributes
    ----------
    crashes:
        How many distinct shards to kill (0 disables fleet faults).
        Must leave at least one shard standing.
    earliest_us / latest_us:
        Simulated-time window the crash times are drawn from
        (uniformly, then sorted).
    seed:
        Seed for the victim/time draws; independent of every other
        generator in the run.
    """

    crashes: int = 1
    earliest_us: float = 10_000.0
    latest_us: float = 200_000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.crashes < 0:
            raise ConfigError("crashes must be >= 0")
        if self.earliest_us < 0:
            raise ConfigError("earliest_us must be >= 0")
        if self.latest_us < self.earliest_us:
            raise ConfigError("latest_us must be >= earliest_us")


class FleetFaultPlan:
    """Deterministic shard-crash schedule for one serving run."""

    __slots__ = ("config", "crashes")

    def __init__(self, config: FleetFaultConfig, num_shards: int) -> None:
        if config.crashes >= num_shards:
            raise ConfigError(
                f"cannot crash {config.crashes} of {num_shards} shards: "
                "at least one shard must survive"
            )
        self.config = config
        rng = Random(config.seed ^ 0xF1EE7)
        victims = sorted(rng.sample(range(num_shards), config.crashes))
        times = sorted(
            rng.uniform(config.earliest_us, config.latest_us)
            for _ in range(config.crashes)
        )
        # Pair sorted victims with sorted times: each shard dies at most
        # once and the schedule is a pure function of (seed, num_shards).
        self.crashes: List[ShardCrash] = [
            ShardCrash(shard_id, at_us)
            for shard_id, at_us in zip(victims, times)
        ]

    def __iter__(self):
        return iter(self.crashes)

    def __len__(self) -> int:
        return len(self.crashes)
