"""The seven benchmark workloads, frozen.

Every workload uses strategy ``adcache``, the paper's 24 B keys and
1000 B logical values, and Zipf 0.9.  Sizes are for ``--seconds 6``
(``BENCHMARK.json``'s ``run_seconds``); another value scales the op
counts linearly, and ``--quick`` is a twentieth.  Changing a number in
this file makes a different benchmark: measure the baseline again.

``--seed`` reaches only the workload generators (and, on the serving
workloads, ``ServeConfig.seed``, which is the fleet's one seed knob).
The database load seed and the engine seed stay fixed, so the program
under test receives nothing from the seed but its inputs.  ``point_fit``
alone runs one op stream whatever the seed (``pinned_seed``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.faults.fleet import FleetFaultConfig
from repro.lsm.options import LSMOptions
from repro.serve import ResilienceConfig, ServeConfig
from repro.workloads.generator import (
    Operation,
    WorkloadGenerator,
    WorkloadSpec,
    balanced_workload,
    batched_mixed_workload,
    point_lookup_workload,
    short_scan_workload,
)
from repro.workloads.scenarios import ScenarioParams, build_scenario

STRATEGY = "adcache"
#: ``run_seconds`` the sizes below were fitted to on the reference host.
RUN_SECONDS = 6
#: Share of an engine workload's ops run before the clock starts.
WARMUP_FRACTION = 0.2
#: Fixed seeds of the program under test (not of its inputs).
DB_SEED = 7
ENGINE_SEED = 0
#: ``--quick`` op-count divisor.
QUICK_DIVISOR = 20


def mixed_write_workload(num_keys: int) -> WorkloadSpec:
    """Write-heavy mix: get .30 / short scan .10 / put .50 / delete .10."""
    return WorkloadSpec(
        num_keys=num_keys,
        get_ratio=0.30,
        short_scan_ratio=0.10,
        write_ratio=0.50,
        delete_ratio=0.10,
        name="mixed_write",
    )


@dataclass(frozen=True)
class EngineWorkload:
    """One single-engine workload: database, cache, op stream."""

    name: str
    why: str
    spec: Callable[[int], WorkloadSpec]
    num_keys: int
    cache_bytes: int
    ops: int  # warm-up included
    batch_size: int = 1
    #: ``(memtable_entries, entries_per_sstable)``; None = library default.
    lsm_shape: Optional[Tuple[int, int]] = None
    #: Op-stream seed used in place of ``--seed``; None = use ``--seed``.
    pinned_seed: Optional[int] = None
    kind = "engine"
    repeats = 5

    def options(self) -> LSMOptions:
        if self.lsm_shape is None:
            return LSMOptions()
        memtable, sstable = self.lsm_shape
        return LSMOptions(memtable_entries=memtable, entries_per_sstable=sstable)

    def scaled_ops(self, scale: float) -> Tuple[int, int]:
        """``(total, warmup)`` op counts, both whole batches."""
        unit = self.batch_size * 5  # keeps the 20 % warm-up batch-aligned
        total = max(unit * 4, int(round(self.ops * scale / unit)) * unit)
        return total, int(total * WARMUP_FRACTION)

    def materialise(self, seed: int, scale: float) -> List[Operation]:
        total, _ = self.scaled_ops(scale)
        if self.pinned_seed is not None:
            seed = self.pinned_seed
        generator = WorkloadGenerator(self.spec(self.num_keys), seed=seed)
        return list(generator.ops(total))


@dataclass(frozen=True)
class ServeWorkload:
    """One serving-fleet workload: a ``ServeConfig`` per seed."""

    name: str
    why: str
    ops: int  # total_ops, or per-tenant phase_ops when scripted
    scenario: Optional[str] = None
    kind = "serve"
    #: A fleet run is timed as one piece, so only whole clean runs count;
    #: two more repeats buy two more chances at one.
    repeats = 7

    def config(self, seed: int, scale: float, rate_ops_s: float = 0.0) -> ServeConfig:
        """The measured run; ``rate_ops_s`` overrides the offered fleet rate."""
        if self.scenario is None:
            total = max(FLAT_CLIENTS, int(round(self.ops * scale)))
            return self._flat(seed, total, rate_ops_s or FLAT_RATE_OPS_S)
        return self._scripted(seed, max(8, int(round(self.ops * scale))), crash=True)

    def null_config(self, seed: int) -> ServeConfig:
        """Build-everything, serve-almost-nothing run that ``setup_s`` times."""
        if self.scenario is None:
            return self._flat(seed, FLAT_CLIENTS, FLAT_RATE_OPS_S)
        # No crash: one scheduled after the last arrival would still fire.
        return self._scripted(seed, 1, crash=False)

    def _flat(self, seed: int, total_ops: int, rate_ops_s: float) -> ServeConfig:
        return ServeConfig(
            num_clients=FLAT_CLIENTS,
            num_shards=4,
            total_ops=total_ops,
            seed=seed,
            strategy=STRATEGY,
            workload=balanced_workload(4000),
            num_keys=4000,
            cache_bytes=512 * 1024,
            arrival_rate_ops_s=rate_ops_s / FLAT_CLIENTS,
            keep_trace=False,
        )

    def _scripted(self, seed: int, phase_ops: int, crash: bool) -> ServeConfig:
        assert self.scenario is not None
        schedule = build_scenario(
            self.scenario,
            ScenarioParams(
                num_keys=3000,
                tenants=4,
                phase_ops=phase_ops,
                arrival_rate_ops_s=500.0,
                seed=seed,
            ),
        )
        duration = schedule.total_duration_us
        faults = None
        if crash:
            # The issue's 2e5..1.5e6 us window of a 6 s run, as shares of
            # the run, so a scaled-down run still crashes mid-flight.
            faults = FleetFaultConfig(
                crashes=1,
                earliest_us=duration / 30.0,
                latest_us=duration / 4.0,
                seed=seed,
            )
        return ServeConfig(
            num_shards=4,
            seed=seed,
            strategy=STRATEGY,
            cache_bytes=256 * 1024,
            l2_budget_bytes=64 * 1024,
            batch_size=8,
            resilience=ResilienceConfig(fleet_faults=faults),
            obs=True,
            keep_trace=False,
            schedule=schedule,
        )


FLAT_CLIENTS = 8
#: Offered fleet rate of ``serve_flat`` and its deterministic rate ladder.
FLAT_RATE_OPS_S = 2400.0
RATE_LADDER_OPS_S: Tuple[float, ...] = (1600.0, 2400.0, 3200.0, 4000.0)
#: A ladder rung is sustainable when both hold.
LADDER_P99_LIMIT_US = 20_000.0
LADDER_FAILED_LIMIT = 0.01

WORKLOADS: Dict[str, Union[EngineWorkload, ServeWorkload]] = {
    w.name: w
    for w in (
        EngineWorkload(
            name="point_fit",
            why="2 000 keys (2 MB) in a 4 MB cache: every get is a range-cache "
            "hit, so engine, skip list and sketch do the work and lsm.* is idle",
            spec=point_lookup_workload,
            num_keys=2_000,
            cache_bytes=4 * 1024 * 1024,
            ops=64_000,
            # Once every get hits, the controller's reward is flat and its
            # boundary random-walks: by op-stream seed the range share ends
            # anywhere from 0.01 to 0.85 and the host speed at 50, 30 or
            # 23 kops/s.  One stream is one exact number; ten are not.
            pinned_seed=0,
        ),
        EngineWorkload(
            name="point_cold",
            why="32 000 keys (32 MB) in a 1 MB cache: most gets walk the levels, "
            "so bloom, tree, storage and block cache dominate the scalar point path",
            spec=point_lookup_workload,
            num_keys=32_000,
            cache_bytes=1024 * 1024,
            ops=30_000,
        ),
        EngineWorkload(
            name="scan_cold",
            why="short scans over 32 000 keys in a 1 MB cache: about 6 block reads "
            "per op; skip-list inserts, intervals and the iterator merge dominate",
            spec=short_scan_workload,
            num_keys=32_000,
            cache_bytes=1024 * 1024,
            ops=8_500,
        ),
        EngineWorkload(
            name="mixed_write",
            why="60 % writes on a tiny memtable: flushes, compactions, WAL and cache "
            "invalidation run beside reads, so a read gain that costs writes shows",
            spec=mixed_write_workload,
            num_keys=8_000,
            cache_bytes=512 * 1024,
            ops=38_000,
            lsm_shape=(32, 64),
        ),
        EngineWorkload(
            name="batch_mixed",
            why="apply_batch at batch 32 over 16 000 keys in 64 KB: the numpy "
            "sketch/bloom and coalesced-fetch path that the scalar workloads bypass",
            spec=batched_mixed_workload,
            num_keys=16_000,
            cache_bytes=64 * 1024,
            ops=24_000,
            batch_size=32,
        ),
        ServeWorkload(
            name="serve_flat",
            why="8 open-loop clients at 2 400 ops/s on 4 shards, every optional "
            "stage off: event loop, router, arbiter, queues and sim clock only",
            ops=3_000,
        ),
        ServeWorkload(
            name="serve_full",
            why="write_flood scenario with shared L2, a shard crash and promotion, "
            "batched dispatch and obs on: every stage serve_flat bypasses",
            ops=180,
            scenario="write_flood",
        ),
    )
}
