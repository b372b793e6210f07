"""The deterministic multi-tenant serving simulator.

Composes the serving layer end to end: N client sessions issue
operations into a shard router; each shard is an independent seeded
engine (its own LSM tree + caches) behind a bounded request queue and a
single logical server; service times are charged from the sim clock's
cost-model deltas, so per-request latency = queue wait + metered engine
work, in simulated microseconds.  A global budget arbiter periodically
re-splits the fleet cache budget across shards from their window
exports.

With a :class:`~repro.serve.resilience.ResilienceConfig` attached, the
fleet also has a failure model: each primary ships its framed WAL to a
passive replica; a seeded :class:`~repro.faults.fleet.FleetFaultPlan`
kills shard executors mid-run and the replica is promoted through the
engine's crash-recovery (torn-tail WAL replay) path with the recovery
time charged to the sim clock; per-shard circuit breakers stop point
routing to sick shards while scans degrade to explicitly *partial*
results; slow point reads are hedged to the replica at a per-tenant
latency quantile; and a degradation ladder sheds scans, then
non-resident reads, then non-owner traffic under sustained overload.
All of it is scheduled on the same event loop and folded into the
fleet fingerprint — byte-for-byte reproducible under a seed, and
byte-identical to the legacy simulator when disabled.

Everything is event-driven off one :class:`~repro.serve.events.EventLoop`
and every random draw comes from per-component seeded generators, so a
configuration reproduces byte-for-byte: the event trace digest, the
latency histograms, and every counter are pure functions of the config.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import sanitize
from repro.bench.report import format_table, latency_table
from repro.bench.simclock import CostModel, SimClock
from repro.bench.strategies import build_engine
from repro.core.engine import KVEngine
from repro.core.stats import WindowStats, merge_windows
from repro.errors import ConfigError, ObsError
from repro.faults.fleet import FleetFaultPlan
from repro.lsm.options import LSMOptions
from repro.lsm.tree import LSMTree
from repro.obs import names as N
from repro.obs.metrics import (
    Histogram,
    WindowSnapshot,
    export_fleet_metrics,
    merge_window_snapshots,
)
from repro.obs.recorder import (
    EVENTS_FILE,
    MANIFEST_FILE,
    METRICS_FILE,
    ObsRecorder,
)
from repro.obs.trace import export_fleet_events
from repro.serve.arbiter import BudgetArbiter
from repro.serve.events import EventLoop
from repro.serve.tier2 import Tier2Coordinator
from repro.serve.queueing import Request, RequestQueue, SubRequest
from repro.serve.resilience import (
    CircuitBreaker,
    DegradationLadder,
    ResilienceConfig,
)
from repro.serve.router import ShardRouter
from repro.serve.session import (
    LATENCY_GROWTH,
    ClientSession,
    PhaseSlot,
    ScriptedSession,
    TenantConfig,
)
from repro.workloads.generator import (
    Operation,
    WorkloadGenerator,
    WorkloadSpec,
    balanced_workload,
)
from repro.workloads.keys import key_of, value_of
from repro.workloads.scenarios import ScenarioSchedule


@dataclass
class ServeConfig:
    """Everything that defines one serving run (and thus its bytes)."""

    num_clients: int = 8
    num_shards: int = 4
    total_ops: int = 20_000
    seed: int = 0
    strategy: str = "adcache"
    workload: Optional[WorkloadSpec] = None  # default: balanced(num_keys)
    num_keys: int = 4000
    cache_bytes: int = 512 * 1024
    #: Bytes of ``cache_bytes`` carved out for the fleet-shared second
    #: tier (0 keeps the flat, byte-identical legacy fleet).  The
    #: arbiter may move the L1/L2 boundary later; the *total* stays
    #: ``cache_bytes`` either way, so tiered-vs-flat comparisons are at
    #: equal budget.
    l2_budget_bytes: int = 0
    partition: str = "hash"
    queue_depth: int = 64
    #: Operations each open-loop session emits per arrival and each
    #: shard server drains per service slot.  1 (the default) keeps the
    #: scalar event sequence — and thus every golden fingerprint —
    #: byte-for-byte; >1 routes same-kind runs through the engine's
    #: batched ``multi_*`` API (vectorized probes, coalesced fetches).
    batch_size: int = 1
    arrival_rate_ops_s: float = 1200.0  # per open-loop client
    closed_clients: int = 0
    think_time_us: float = 1000.0
    rebalance_every: int = 2000  # completed requests; 0 disables
    window_size: int = 250
    memtable_entries: int = 32
    entries_per_sstable: int = 64
    keep_trace: bool = True
    cost_model: Optional[CostModel] = None
    #: Per-op completion deadline charged against queue wait; expired
    #: sub-requests are shed at dequeue (0 disables).
    op_deadline_us: float = 0.0
    #: Fleet failure handling; None keeps the legacy byte-identical run.
    resilience: Optional[ResilienceConfig] = None
    #: Attach an ObsRecorder to every shard engine.  Off by default so
    #: the golden fingerprints and the perf gate see an untouched run.
    obs: bool = False
    obs_trace_capacity: int = 4096
    #: Scenario-atlas mode: play a multi-phase schedule instead of one
    #: stationary workload.  Adopts the schedule's tenant set, keyspace,
    #: and op budget; ``workload``/``closed_clients`` must stay default.
    schedule: Optional[ScenarioSchedule] = None

    def __post_init__(self) -> None:
        if self.schedule is not None:
            if self.workload is not None:
                raise ConfigError(
                    "schedule and workload are mutually exclusive; the "
                    "schedule carries its own per-phase specs"
                )
            if self.closed_clients:
                raise ConfigError(
                    "scheduled runs are open-loop only; closed_clients "
                    "must be 0"
                )
            # The schedule defines the population, the work, and the
            # base offered load its phase durations were sized for.
            self.num_clients = len(self.schedule.tenant_names)
            self.num_keys = self.schedule.num_keys
            self.total_ops = self.schedule.total_ops
            self.arrival_rate_ops_s = self.schedule.arrival_rate_ops_s
        if self.num_clients <= 0:
            raise ConfigError("num_clients must be positive")
        if self.num_shards <= 0:
            raise ConfigError("num_shards must be positive")
        if self.total_ops < self.num_clients:
            raise ConfigError("need at least one op per client")
        if not 0 <= self.closed_clients <= self.num_clients:
            raise ConfigError("closed_clients must lie in [0, num_clients]")
        if self.rebalance_every < 0:
            raise ConfigError("rebalance_every must be >= 0")
        if self.window_size <= 0:
            raise ConfigError("window_size must be positive")
        if self.op_deadline_us < 0:
            raise ConfigError("op_deadline_us must be >= 0")
        if self.batch_size <= 0:
            raise ConfigError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if not 0 <= self.l2_budget_bytes < self.cache_bytes:
            raise ConfigError(
                f"l2_budget_bytes must lie in [0, cache_bytes), got "
                f"{self.l2_budget_bytes} of {self.cache_bytes}"
            )
        res = self.resilience
        if res is not None and res.fleet_faults is not None and not res.replicas:
            raise ConfigError(
                "fleet faults require replicas: a crashed shard with no "
                "replica to promote loses its keyspace for the whole run"
            )

    @property
    def spec(self) -> WorkloadSpec:
        """The workload spec (defaults to the balanced mix)."""
        return self.workload or balanced_workload(self.num_keys)

    @property
    def resilience_active(self) -> bool:
        """Whether any non-legacy behaviour (and trace records) can occur."""
        return self.resilience is not None or self.op_deadline_us > 0

    @property
    def tier2_active(self) -> bool:
        """Whether the run carries a shared second cache tier."""
        return self.l2_budget_bytes > 0

    @property
    def l1_pool_bytes(self) -> int:
        """Bytes the shard L1s split after the shared tier's carve-out."""
        return self.cache_bytes - self.l2_budget_bytes


@dataclass
class TenantResult:
    """Per-tenant outcome: accounting plus the latency distribution."""

    name: str
    mode: str
    issued: int
    completed: int
    rejected: int
    latency: Histogram


@dataclass
class ShardResult:
    """Per-shard outcome: work served, I/O paid, budget held."""

    shard_id: int
    keys_owned: int
    subrequests_served: int
    disk_reads: int
    budget_bytes: int
    peak_queue_depth: int
    rejected_at: int
    busy_us: float
    #: Resilience extras (zero / False on legacy runs).
    crashed: bool = False
    promoted: bool = False
    failover_us: float = 0.0
    wal_replayed: int = 0


@dataclass
class ServeResult:
    """Everything one serving run produced."""

    config: ServeConfig
    duration_us: float
    issued: int
    completed: int
    rejected: int
    throughput_qps: float
    latency: Histogram
    queue_wait: Histogram
    tenants: List[TenantResult]
    shards: List[ShardResult]
    fleet_window: WindowStats
    rebalances: int
    evictions_forced: int
    trace_digest: str
    trace: List[str] = field(default_factory=list)
    #: Requests shed per distinct reason (queue_full, deadline, ...).
    shed_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Circuit-breaker transition audit, one rendered line per change.
    breaker_log: List[str] = field(default_factory=list)
    #: Degradation-ladder transition audit.
    degrade_log: List[str] = field(default_factory=list)
    crashes: int = 0
    promotions: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    scans_partial: int = 0
    #: Acknowledged writes whose durable value could not be read back.
    lost_acked_writes: int = 0
    acked_writes_checked: int = 0
    #: Per-shard recorders (``config.obs`` runs only; empty otherwise).
    obs_recorders: List[ObsRecorder] = field(default_factory=list, repr=False)
    #: Fleet-wide reduction of the per-shard metric windows.
    obs_fleet_windows: List[WindowSnapshot] = field(default_factory=list, repr=False)
    #: Shared-tier summary (tiered runs only; all zeros on flat runs).
    l2_probes: int = 0
    l2_hits: int = 0
    l2_demotions: int = 0
    l2_admits: int = 0
    l2_rejects: int = 0
    l2_ghost_hits: int = 0
    l2_evictions: int = 0
    l2_budget_bytes: int = 0
    l2_used_bytes: int = 0
    l2_share_final: float = 0.0
    #: Rendered L1/L2 boundary moves, one line per arbitration round.
    l2_log: List[str] = field(default_factory=list)

    def export_obs(self, directory: str) -> Dict[str, str]:
        """Write obs artifacts: one subdirectory per shard + a fleet view.

        ``shard<N>/`` each hold a complete single-engine export
        (metrics, events, audit when the strategy has a controller);
        the top level is itself a complete export — ``metrics.jsonl``
        is the fleet-wide merge-windows-style reduction,
        ``events.jsonl`` the shard-tagged interleave of every trace —
        so ``repro report`` (and its ``--validate``) read the fleet
        directory exactly like a single-shard one.
        """
        if not self.obs_recorders:
            raise ObsError(
                "run recorded no observability; set ServeConfig.obs=True"
            )
        os.makedirs(directory, exist_ok=True)
        paths: Dict[str, str] = {}
        for shard_id, recorder in enumerate(self.obs_recorders):
            sub = os.path.join(directory, f"shard{shard_id}")
            recorder.export(sub)
            paths[f"shard{shard_id}"] = sub
        fleet_path = os.path.join(directory, METRICS_FILE)
        export_fleet_metrics([r.metrics for r in self.obs_recorders], fleet_path)
        paths["fleet"] = fleet_path
        events_path = os.path.join(directory, EVENTS_FILE)
        export_fleet_events([r.trace for r in self.obs_recorders], events_path)
        paths["fleet_events"] = events_path
        manifest = {
            "version": 1,
            "fleet": True,
            "shards": len(self.obs_recorders),
            "final_ts_us": max(r.now_us for r in self.obs_recorders),
            "windows": len(self.obs_fleet_windows),
            "events_recorded": sum(r.trace.next_seq for r in self.obs_recorders),
            "events_dropped": sum(
                r.trace.dropped_total for r in self.obs_recorders
            ),
            "files": sorted([EVENTS_FILE, METRICS_FILE]),
        }
        manifest_path = os.path.join(directory, MANIFEST_FILE)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths["manifest"] = manifest_path
        return paths

    def fingerprint(self) -> str:
        """One hash covering the trace, histograms, and counters.

        Resilience outputs (shed reasons, breaker/ladder audits,
        failover accounting) are folded in only when the feature is
        active, so legacy configurations keep their golden hashes.
        """
        h = hashlib.sha256()
        h.update(self.trace_digest.encode())
        h.update(repr(self.latency.fingerprint()).encode())
        h.update(repr(self.queue_wait.fingerprint()).encode())
        for t in self.tenants:
            h.update(
                f"{t.name}:{t.issued}:{t.completed}:{t.rejected}".encode()
            )
            h.update(repr(t.latency.fingerprint()).encode())
        for s in self.shards:
            h.update(
                f"{s.shard_id}:{s.subrequests_served}:{s.disk_reads}:"
                f"{s.budget_bytes}:{s.peak_queue_depth}:{s.rejected_at}".encode()
            )
        h.update(f"{self.duration_us:.3f}:{self.rebalances}".encode())
        if self.config.resilience_active:
            for reason in sorted(self.shed_by_reason):
                h.update(f"{reason}={self.shed_by_reason[reason]}".encode())
            for line in self.breaker_log:
                h.update(line.encode())
            for line in self.degrade_log:
                h.update(line.encode())
            h.update(
                f"{self.crashes}:{self.promotions}:{self.hedges}:"
                f"{self.hedge_wins}:{self.scans_partial}:"
                f"{self.lost_acked_writes}".encode()
            )
            for s in self.shards:
                h.update(
                    f"{int(s.crashed)}:{int(s.promoted)}:"
                    f"{s.failover_us:.3f}:{s.wal_replayed}".encode()
                )
        if self.config.tier2_active:
            h.update(
                f"{self.l2_probes}:{self.l2_hits}:{self.l2_demotions}:"
                f"{self.l2_admits}:{self.l2_rejects}:{self.l2_ghost_hits}:"
                f"{self.l2_evictions}:{self.l2_budget_bytes}:"
                f"{self.l2_used_bytes}:{self.l2_share_final:.6f}".encode()
            )
            for line in self.l2_log:
                h.update(line.encode())
        return h.hexdigest()

    def format_report(self) -> str:
        """Multi-section text report for the CLI."""
        c = self.config
        lines = [
            f"serve: {c.strategy} | {c.num_clients} clients "
            f"({c.closed_clients} closed) x {c.num_shards} shards "
            f"({c.partition}) | {self.issued} ops | seed {c.seed}",
            f"simulated time: {self.duration_us / 1e6:.3f} s   "
            f"throughput: {self.throughput_qps:,.0f} qps   "
            f"completed: {self.completed}   rejected: {self.rejected}",
            "",
            "latency (us):",
            latency_table(
                {"all": self.latency, "queue wait": self.queue_wait},
                label="metric",
            ),
            "",
            "per-tenant:",
        ]
        rows = []
        for t in self.tenants:
            rows.append(
                [
                    t.name,
                    t.mode,
                    str(t.issued),
                    str(t.completed),
                    str(t.rejected),
                    f"{t.latency.p50:,.0f}",
                    f"{t.latency.p99:,.0f}",
                ]
            )
        lines.append(
            format_table(
                ["tenant", "mode", "issued", "done", "shed", "p50", "p99"],
                rows,
            )
        )
        lines.append("")
        lines.append("per-shard:")
        shard_rows = []
        for s in self.shards:
            shard_rows.append(
                [
                    str(s.shard_id),
                    str(s.keys_owned),
                    str(s.subrequests_served),
                    str(s.disk_reads),
                    f"{s.budget_bytes // 1024} KB",
                    str(s.peak_queue_depth),
                    str(s.rejected_at),
                    f"{100.0 * s.busy_us / self.duration_us if self.duration_us else 0.0:.1f}%",
                ]
            )
        lines.append(
            format_table(
                ["shard", "keys", "served", "sst reads", "budget", "peakq",
                 "shed", "util"],
                shard_rows,
            )
        )
        w = self.fleet_window
        lines.append("")
        lines.append(
            f"fleet: io_miss={w.io_miss} range_hits="
            f"{w.range_point_hits + w.range_scan_hits} "
            f"block_hit_rate={w.block_hit_rate:.3f} "
            f"rebalances={self.rebalances} "
            f"evictions_forced={self.evictions_forced}"
        )
        if self.config.resilience_active:
            sheds = " ".join(
                f"{reason}={self.shed_by_reason[reason]}"
                for reason in sorted(self.shed_by_reason)
            )
            lines.append(
                f"resilience: crashes={self.crashes} "
                f"promotions={self.promotions} hedges={self.hedges} "
                f"hedge_wins={self.hedge_wins} "
                f"scans_partial={self.scans_partial} "
                f"lost_acked_writes={self.lost_acked_writes}/"
                f"{self.acked_writes_checked}"
            )
            if sheds:
                lines.append(f"shed by reason: {sheds}")
            for line in self.breaker_log:
                lines.append(f"breaker: {line}")
            for line in self.degrade_log:
                lines.append(f"degrade: {line}")
        if self.config.tier2_active:
            probed = self.l2_probes
            hit_rate = self.l2_hits / probed if probed else 0.0
            lines.append(
                f"tier2: budget={self.l2_budget_bytes // 1024} KB "
                f"(share {self.l2_share_final:.3f}) "
                f"hits={self.l2_hits}/{self.l2_probes} "
                f"(rate {hit_rate:.3f}) "
                f"admitted={self.l2_admits}/{self.l2_demotions} "
                f"ghost_hits={self.l2_ghost_hits} "
                f"evictions={self.l2_evictions}"
            )
            for line in self.l2_log:
                lines.append(f"l2split: {line}")
        lines.append(f"trace digest: {self.trace_digest}")
        return "\n".join(lines)


class _Shard:
    """One shard's engine, queue, clock, and single logical server.

    With resilience enabled the shard also carries a passive replica
    engine (WAL-shipped), a circuit breaker, and an epoch counter that
    invalidates in-flight work when the executor crashes.
    """

    __slots__ = (
        "shard_id",
        "engine",
        "queue",
        "clock",
        "busy",
        "busy_us",
        "keys_owned",
        "replica_engine",
        "replica_clock",
        "breaker",
        "down",
        "epoch",
        "crashed",
        "promoted",
        "failover_us",
        "wal_replayed",
    )

    def __init__(
        self,
        shard_id: int,
        engine: KVEngine,
        queue: RequestQueue,
        clock: SimClock,
        keys_owned: int,
    ) -> None:
        self.shard_id = shard_id
        self.engine = engine
        self.queue = queue
        self.clock = clock
        self.busy = False
        self.busy_us = 0.0
        self.keys_owned = keys_owned
        self.replica_engine: Optional[KVEngine] = None
        self.replica_clock: Optional[SimClock] = None
        self.breaker: Optional[CircuitBreaker] = None
        self.down = False
        self.epoch = 0
        self.crashed = False
        self.promoted = False
        self.failover_us = 0.0
        self.wal_replayed = 0


def _shard_engine(
    config: ServeConfig, shard_id: int, ids: List[int], budget: int, seed: int
) -> KVEngine:
    """One shard engine over a freshly bulk-loaded tree.

    Primary and replica share the durable base (the bulk-load seed
    depends only on the shard) and differ only in the engine ``seed``.
    Key-space-growth schedules preload only a prefix of the keyspace;
    the rest comes into existence through the scenario's writes.
    """
    preload = config.num_keys
    if config.schedule is not None:
        preload = config.schedule.preload_keys
    tree = LSMTree(
        LSMOptions(
            memtable_entries=config.memtable_entries,
            entries_per_sstable=config.entries_per_sstable,
        )
    )
    tree.bulk_load(
        ((key_of(i), value_of(i)) for i in ids if i < preload),
        seed=7 + shard_id,
    )
    engine = build_engine(config.strategy, tree, budget, seed=seed)
    engine.window_size = config.window_size
    return engine


def _build_shards(config: ServeConfig, router: ShardRouter) -> List[_Shard]:
    per_shard_ids = router.shard_ids()
    # Shard L1s split the pool left after the shared tier's carve-out
    # (the whole budget when tiering is off).  The router owns the full
    # key range even when the schedule preloads only a prefix.
    pool = config.l1_pool_bytes
    base = pool // config.num_shards
    res = config.resilience
    shards: List[_Shard] = []
    for shard_id, ids in enumerate(per_shard_ids):
        share = base
        if shard_id == 0:
            share = pool - base * (config.num_shards - 1)
        engine = _shard_engine(
            config, shard_id, ids, share, config.seed + 101 * (shard_id + 1)
        )
        queue = RequestQueue(shard_id, config.queue_depth)
        queue.sanitize_from_env(seed=config.seed + 31 + shard_id)
        shard = _Shard(
            shard_id,
            engine,
            queue,
            SimClock(engine, config.cost_model),
            len(ids),
        )
        if res is not None and res.replicas:
            # Passive replica with its own engine seed stream.  The
            # primary ships every write into the replica's framed WAL;
            # promotion replays it through the normal crash-recovery path.
            replica = _shard_engine(
                config, shard_id, ids, share, config.seed + 7919 * (shard_id + 1)
            )
            shard.replica_engine = replica
            shard.replica_clock = SimClock(replica, config.cost_model)
        if res is not None:
            shard.breaker = CircuitBreaker(shard_id, res)
            shard.breaker.sanitize_from_env(seed=config.seed + 53 + shard_id)
        shards.append(shard)
    return shards


def _build_sessions(config: ServeConfig) -> List[ClientSession]:
    base = config.total_ops // config.num_clients
    remainder = config.total_ops - base * config.num_clients
    sessions: List[ClientSession] = []
    first_closed = config.num_clients - config.closed_clients
    for i in range(config.num_clients):
        tenant = TenantConfig(
            name=f"client{i:02d}",
            ops=base + (1 if i < remainder else 0),
            mode="closed" if i >= first_closed else "open",
            arrival_rate_ops_s=config.arrival_rate_ops_s,
            think_time_us=config.think_time_us,
        )
        generator = WorkloadGenerator(
            config.spec, seed=config.seed + 1000 * (i + 1)
        )
        sessions.append(
            ClientSession(
                tenant, generator.ops(tenant.ops), seed=config.seed + 500 + i
            )
        )
    return sessions


def _build_scripted_sessions(config: ServeConfig) -> List[ClientSession]:
    """One :class:`ScriptedSession` per tenant in the scenario schedule.

    Per-slot generators are seeded from ``(run seed, schedule seed,
    tenant index, phase index)`` so every cell of the scenarios ×
    strategies matrix is independently reproducible and two phases
    never share a stream.
    """
    schedule = config.schedule
    assert schedule is not None
    starts = schedule.phase_starts()
    sessions: List[ClientSession] = []
    for t_idx, name in enumerate(schedule.tenant_names):
        slots: List[PhaseSlot] = []
        for p_idx, phase in enumerate(schedule.phases):
            start = starts[p_idx]
            end = start + phase.duration_us
            load = phase.tenants.get(name)
            if load is None or not load.active:
                slots.append(PhaseSlot(start, end, 0, 0.0, None))
                continue
            generator = WorkloadGenerator(
                load.spec,
                seed=(
                    config.seed
                    + 9973 * schedule.seed
                    + 1000 * (t_idx + 1)
                    + 131 * (p_idx + 1)
                ),
            )
            slots.append(
                PhaseSlot(
                    start, end, load.ops, load.rate_scale,
                    generator.ops(load.ops),
                )
            )
        tenant = TenantConfig(
            name=name,
            ops=schedule.tenant_total_ops(name),
            mode="open",
            arrival_rate_ops_s=config.arrival_rate_ops_s,
            think_time_us=config.think_time_us,
        )
        sessions.append(
            ScriptedSession(tenant, slots, seed=config.seed + 500 + t_idx)
        )
    return sessions


class _Simulation:
    """Mutable run state; one instance per :func:`run_serve` call."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.spec = config.spec
        self.res = config.resilience
        self.router = ShardRouter(
            config.num_shards, self.spec.num_keys, config.partition
        )
        self.shards = _build_shards(config, self.router)
        self.tier2: Optional[Tier2Coordinator] = None
        if config.tier2_active:
            # One shared tier for the fleet: its budget is the carve-out
            # the shards' L1 pool already excludes.  All mutation happens
            # through the coordinator inside loop callbacks, so two
            # same-seed runs replay the exact probe/demotion order.
            self.tier2 = Tier2Coordinator(
                config.l2_budget_bytes,
                self.shards[0].engine.tree.options.block_size,
                sketch_seed=config.seed + 43,
            )
            self.tier2.sanitize_from_env(seed=config.seed + 43)
            for shard in self.shards:
                self.tier2.attach(shard.shard_id, shard.engine)
                # The attach rewired the read path; rebase the clock so
                # no pre-run capture skew leaks into the first charge.
                shard.clock.rebase()
        self.obs_recorders: List[ObsRecorder] = []
        if config.obs:
            for shard in self.shards:
                recorder = ObsRecorder(trace_capacity=config.obs_trace_capacity)
                shard.engine.attach_recorder(recorder)
                self.obs_recorders.append(recorder)
        if config.schedule is not None:
            self.sessions = _build_scripted_sessions(config)
        else:
            self.sessions = _build_sessions(config)
        self._by_name: Dict[str, ClientSession] = {
            s.name: s for s in self.sessions
        }
        self.loop = EventLoop()
        self.arbiter: Optional[BudgetArbiter] = None
        if config.rebalance_every > 0:
            self.arbiter = BudgetArbiter(
                [s.engine for s in self.shards],
                config.cache_bytes,
                tier2=self.tier2,
            )
            self.arbiter.sanitize_from_env(seed=config.seed + 17)
        self.ladder: Optional[DegradationLadder] = None
        self._owner_names: Set[str] = set()
        if self.res is not None:
            self.ladder = DegradationLadder(self.res)
            self.ladder.sanitize_from_env(seed=config.seed + 71)
            self._owner_names = {
                s.name for s in self.sessions[: self.res.owner_tenants]
            }
        self._queue_capacity_total = config.num_shards * config.queue_depth
        self.latency = Histogram(growth=LATENCY_GROWTH)
        self.queue_wait = Histogram(growth=LATENCY_GROWTH)
        self.completed_total = 0
        self.rejected_total = 0
        self.crashes = 0
        self.promotions = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.scans_partial = 0
        self.shed_by_reason: Dict[str, int] = {}
        #: Durability ledger: key -> (owner shard, last acked value).
        self._acked: Dict[str, tuple] = {}
        self._breaker_emitted = [0] * config.num_shards
        self._ladder_emitted = 0
        # Fleet-level L2 obs marks (ghost hits recency/frequency,
        # evictions): folded as deltas on recorder 0 at each rebalance,
        # mirroring the ladder trace — the simulation is their single
        # writer, the shard engines own the per-shard flow counters.
        self._l2_obs_mark = (0, 0, 0)
        self._next_seq = 0
        self._hasher = hashlib.sha256()
        self.trace: List[str] = []

    # -- trace ------------------------------------------------------------

    def emit(self, kind: str, *fields: object) -> None:
        record = f"{self.loop.now:.3f} {kind} " + " ".join(
            str(f) for f in fields
        )
        self._hasher.update(record.encode())
        self._hasher.update(b"\n")
        if self.config.keep_trace:
            self.trace.append(record)

    def _shed(self, reason: str) -> None:
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1

    def _record(self, shard_id: int, metric: str) -> None:
        """Bump a serve counter on a shard's recorder (obs runs only)."""
        if self.obs_recorders:
            recorder = self.obs_recorders[shard_id]
            recorder.advance_to(self.loop.now)
            recorder.inc(metric)

    def _flush_breaker_trace(self, shard_id: int) -> None:
        """Emit (and record) breaker transitions since the last check."""
        breaker = self.shards[shard_id].breaker
        if breaker is None:
            return
        start = self._breaker_emitted[shard_id]
        for time_us, src, dst, reason in breaker.transitions[start:]:
            self.emit("breaker", shard_id, f"{src}->{dst}", reason)
            if self.obs_recorders:
                recorder = self.obs_recorders[shard_id]
                recorder.advance_to(self.loop.now)
                recorder.inc(N.SERVE_BREAKER_TRANSITIONS)
                recorder.event(
                    N.EV_BREAKER,
                    shard=shard_id,
                    src=src,
                    dst=dst,
                    reason=reason,
                )
        self._breaker_emitted[shard_id] = len(breaker.transitions)

    def _flush_ladder_trace(self) -> None:
        ladder = self.ladder
        if ladder is None:
            return
        for time_us, src, dst, pressure in ladder.transitions[
            self._ladder_emitted:
        ]:
            self.emit("degrade", src, dst, f"{pressure:.4f}")
            if self.obs_recorders:
                recorder = self.obs_recorders[0]
                recorder.advance_to(self.loop.now)
                recorder.set_gauge(N.G_DEGRADE_LEVEL, float(dst))
                recorder.event(
                    N.EV_DEGRADE, src=src, dst=dst, pressure=pressure
                )
        self._ladder_emitted = len(ladder.transitions)

    def _flush_l2_obs(self) -> None:
        """Fold fleet-level shared-tier deltas onto recorder 0."""
        tier2 = self.tier2
        if tier2 is None or not self.obs_recorders:
            return
        cache = tier2.cache
        ghr, ghf, ev = (
            cache.ghost_hits_recency,
            cache.ghost_hits_frequency,
            cache.evictions,
        )
        ghr0, ghf0, ev0 = self._l2_obs_mark
        self._l2_obs_mark = (ghr, ghf, ev)
        recorder = self.obs_recorders[0]
        recorder.advance_to(self.loop.now)
        recorder.inc(N.L2_GHOST_HITS_RECENCY, ghr - ghr0)
        recorder.inc(N.L2_GHOST_HITS_FREQUENCY, ghf - ghf0)
        recorder.inc(N.L2_EVICTIONS, ev - ev0)
        share = (
            tier2.budget_bytes / self.config.cache_bytes
            if self.config.cache_bytes
            else 0.0
        )
        recorder.set_gauge(N.G_L2_BUDGET_SHARE, share)
        recorder.set_gauge(N.G_L2_OCCUPANCY, cache.occupancy)

    # -- resilience helpers ------------------------------------------------

    def _queue_pressure(self) -> float:
        waiting = sum(len(s.queue) for s in self.shards)
        return waiting / self._queue_capacity_total

    def _resident(self, key: str, shard: _Shard) -> bool:
        """Best-effort residency probe for the ladder's L2 gate."""
        engine = shard.engine
        probed = False
        for cache in (engine.range_cache, engine.kv_cache, engine.kp_cache):
            if cache is not None:
                probed = True
                if cache.contains(key):
                    return True
        # Engines with no probe-capable cache (pure block strategy)
        # cannot distinguish cold keys; treat reads as resident.
        return not probed

    def _ship_to_replica(self, shard: _Shard, sub: SubRequest) -> None:
        """Synchronously replicate a write into the replica's framed WAL.

        Shipping happens before the ack completes, so an acknowledged
        write is always either in a live primary or replayable from the
        replica's log — the no-lost-acked-writes guarantee.
        """
        if sub.op.kind not in ("put", "delete"):
            return
        value = (sub.op.value or "") if sub.op.kind == "put" else None
        replica = shard.replica_engine
        if replica is not None:
            replica.tree.wal.append(sub.op.key, value)
        # The durability ledger tracks the last acked value per key even
        # after a promotion consumed the replica: the promoted engine is
        # then the (sole) durable home of subsequent writes.
        self._acked[sub.op.key] = (shard.shard_id, value)

    # -- issue / service / complete ---------------------------------------

    def issue(self, session: ClientSession) -> None:
        op = session.next_operation()
        if op is None:
            return
        burst = [op]
        if session.mode == "open":
            # Open-loop sessions emit up to batch_size ops per arrival.
            # Closed sessions stay one-op-per-think-time: bursting them
            # would multiply the in-flight window on every completion.
            while len(burst) < self.config.batch_size:
                extra = session.next_operation()
                if extra is None:
                    break
                burst.append(extra)
            # Open-loop arrivals keep coming regardless of this batch's
            # fate.  A burst consumes one inter-arrival delay per op it
            # carries, so the offered op rate is the same at every
            # batch size (and bit-identical to scalar at batch 1).
            delay = 0.0
            for _ in burst:
                delay += session.next_delay_us()
            self.loop.after(delay, lambda: self.issue(session))
        self._arrive(session, burst)

    def issue_scripted(self, session: ScriptedSession) -> None:
        """Arrival path for scenario-scripted tenants.

        The session's script decides whether an operation enters now,
        the tenant sleeps through a dormant stretch (to the next phase
        boundary), or the script is over.  Arrivals stay open-loop:
        the next issue is scheduled before this op is dispatched, at
        the current phase's scaled rate.
        """
        kind, wake_us, op = session.poll(self.loop.now)
        if kind == "done":
            return
        if kind == "sleep":
            self.loop.at(wake_us, lambda: self.issue_scripted(session))
            return
        assert op is not None
        self.loop.after(
            session.arrival_delay_us(), lambda: self.issue_scripted(session)
        )
        self._arrive(session, [op])

    def _arrive(self, session: ClientSession, ops: List[Operation]) -> None:
        """Plan, build, and admit-or-shed every operation of one arrival.

        Queue admission is all-or-nothing per operation: if any target
        queue is full the whole request is shed and accounted at every
        full queue.  Shards start serving only once the whole burst is
        queued, so an idle shard's first service slot sees the sub-batch
        the router assigned it rather than a batch of one.  The failure
        model is the exception: its ladder and breakers gate each
        operation on the queues as the previous one left them, so there
        an operation's shards start before the next one is gated.
        """
        now = self.loop.now
        op_deadline_us = self.config.op_deadline_us
        deadline = now + op_deadline_us if op_deadline_us else 0.0
        touched: Set[int] = set()
        for op in ops:
            seq = self._next_seq
            self._next_seq += 1
            self.emit("arrive", seq, session.name, op.kind)
            if self.res is not None:
                plan, dropped = self._plan_resilient(session, seq, op)
                if not plan:
                    continue
            else:
                plan, dropped = self.router.plan(op), []
            request = Request(seq, session.name, op, now, len(plan), deadline)
            if dropped:
                # Scatter-gather minus the dead shards: the eventual result
                # carries an explicit partial marker.
                request.parts_dropped += len(dropped)
                self.emit(
                    "drop", seq, " ".join(str(i) for i in dropped), "unplanned"
                )
            full = [
                q
                for q in (self.shards[shard_id].queue for shard_id, _ in plan)
                if not q.has_room()
            ]
            if full:
                for q in full:
                    q.note_rejected()
                self._shed("queue_full")
                self._reject(session, "shed", seq)
                continue
            for shard_id, sub_op in plan:
                shard = self.shards[shard_id]
                shard.queue.push(
                    SubRequest(request, shard_id, sub_op, now, shard.epoch)
                )
            if self.res is not None:
                for shard_id, _ in plan:
                    self.maybe_start(shard_id)
                self._maybe_hedge(request, plan)
            else:
                touched.update(shard_id for shard_id, _ in plan)
        for shard_id in sorted(touched):
            self.maybe_start(shard_id)

    def _plan_resilient(
        self, session: ClientSession, seq: int, op: Operation
    ) -> Tuple[List[Tuple[int, Operation]], List[int]]:
        """Gate one arrival through the failure model and plan around it.

        Returns ``(live_plan, dropped_shards)``; the plan is empty once
        the arrival has been rejected (and accounted) here.
        """
        assert self.ladder is not None
        # 1. Degradation ladder: re-evaluate, then gate this arrival.
        self.ladder.observe(
            self._queue_pressure(),
            any(s.down for s in self.shards),
            self.loop.now,
        )
        self._flush_ladder_trace()
        owner = session.name in self._owner_names
        resident = True
        if op.kind == "get" and self.ladder.level >= 2:
            target = self.shards[self.router.shard_of_key(op.key)]
            resident = not target.down and self._resident(op.key, target)
        reason = self.ladder.admits(op.kind, owner, resident)
        if reason is not None:
            self._record(0, N.SERVE_SHED_DEGRADED)
            self._shed(reason)
            self._reject(session, "shedr", seq, reason)
            return [], []
        # 2. Health-aware planning: route around dead / open shards.
        unavailable = {s.shard_id for s in self.shards if s.down}
        for shard in self.shards:
            if shard.breaker is not None and not shard.down:
                if not shard.breaker.allow(self.loop.now):
                    unavailable.add(shard.shard_id)
                self._flush_breaker_trace(shard.shard_id)
        plan, dropped = self.router.plan_healthy(op, unavailable)
        if not plan:
            for shard_id in dropped:
                self._record(shard_id, N.SERVE_SHED_BREAKER)
            reason = (
                "shard_down"
                if any(self.shards[i].down for i in dropped)
                else "breaker_open"
            )
            self._shed(reason)
            self._reject(session, "shedr", seq, reason)
        return plan, dropped

    def _reject(
        self, session: ClientSession, record: str, seq: int, *fields: object
    ) -> None:
        """Account one failed request and let its closed-loop client move on."""
        session.rejected += 1
        self.rejected_total += 1
        self.emit(record, seq, session.name, *fields)
        self._issue_after_think(session)

    def _issue_after_think(self, session: ClientSession) -> None:
        """Closed loop: the next issue follows this request's outcome."""
        if session.mode == "closed":
            self.loop.after(
                session.next_delay_us(), lambda: self.issue(session)
            )

    def maybe_start(self, shard_id: int) -> None:
        """Drain up to ``batch_size`` live sub-requests into one service slot.

        A slot of several executes through the engine's batched API
        (same-kind runs share one ``multi_*`` call) and the whole slot
        is charged as one metered delta — coalesced block fetches inside
        a run cost one simulated read instead of N.
        """
        shard = self.shards[shard_id]
        if shard.down or shard.busy:
            return
        subs: List[SubRequest] = []
        while len(subs) < self.config.batch_size and len(shard.queue):
            sub, expired = shard.queue.pop_live(self.loop.now)
            for dead in expired:
                self._record(shard_id, N.SERVE_SHED_DEADLINE)
                self.emit("expire", dead.request.seq, shard_id)
                self._sub_dropped(dead, "deadline")
            if sub is None:
                break
            # complete() judges a whole slot by its first sub's epoch.
            assert sub.epoch == shard.epoch, "queued sub outlived its shard"
            subs.append(sub)
        if not subs:
            return
        shard.busy = True
        for sub in subs:
            sub.start_us = self.loop.now
            self.queue_wait.observe(sub.start_us - sub.enqueue_us)
        if self.obs_recorders:
            # Serving-layer time is richer than engine-work time (it
            # includes queueing), so recordings carry event-loop stamps.
            self.obs_recorders[shard_id].advance_to(self.loop.now)
        # Execute now and charge the metered delta as this slot's service
        # time; event callbacks are synchronous, so no other shard's work
        # can leak into this clock window.
        if len(subs) == 1:
            results = [self.router.execute(shard.engine, subs[0].op)]
        else:
            results = self.router.execute_batch(
                shard.engine, [sub.op for sub in subs]
            )
        for sub, entries in zip(subs, results):
            if sub.request.parts is not None:
                sub.request.parts.append(entries)
            if self.res is not None:
                self._ship_to_replica(shard, sub)
        service_us = max(0.0, shard.clock.charge())
        shard.busy_us += service_us
        for sub in subs:
            self.emit("start", sub.request.seq, shard_id)
        self.loop.after(service_us, lambda: self.complete(subs))

    def complete(self, subs: List[SubRequest]) -> None:
        """Finish one service slot and start the shard's next."""
        shard_id = subs[0].shard
        shard = self.shards[shard_id]
        # A crash drains the queue as it bumps the epoch, so a slot's
        # subs share one incarnation (maybe_start asserts it): all live
        # or all dead.
        if subs[0].epoch != shard.epoch:
            # The executor died while this slot was in flight; its
            # incarnation is gone and the results with it.
            for sub in subs:
                self.emit("drop", sub.request.seq, shard_id, "crash_inflight")
                self._sub_dropped(sub, "crash_inflight")
            return
        shard.busy = False
        timeout = self.res.op_timeout_us if self.res else 0.0
        for sub in subs:
            request = sub.request
            request.remaining -= 1
            self.emit("finish", request.seq, shard_id)
            if shard.breaker is not None:
                if timeout and self.loop.now - sub.start_us > timeout:
                    shard.breaker.record_failure(self.loop.now, "timeout")
                else:
                    shard.breaker.record_success(self.loop.now)
                self._flush_breaker_trace(shard_id)
            if request.remaining == 0:
                self.finish_request(request)
        self.maybe_start(shard_id)

    def _sub_dropped(self, sub: SubRequest, reason: str) -> None:
        """Account one sub-request that will never produce a result."""
        self._shed(reason)
        request = sub.request
        request.remaining -= 1
        request.parts_dropped += 1
        if request.remaining == 0:
            self.finish_request(request)

    def finish_request(self, request: Request) -> None:
        if request.done:
            # A winning hedge (or an earlier finalisation) already
            # answered this request; late results are discarded.
            return
        request.done = True
        if request.parts_dropped and (
            request.parts is None or not request.parts
        ):
            # Every part died (crash / expiry): the request fails.
            self._reject(self._session_of(request.tenant), "fail", request.seq)
            return
        if request.parts is not None:
            # The gather half of scatter-gather; the merged result is the
            # request's answer (dropped here — correctness is unit-tested
            # against an unsharded oracle).
            self.router.merge_scan(request.parts, request.op.length)
            if request.parts_dropped:
                # Explicitly partial: some shards contributed nothing.
                self.scans_partial += 1
                self._record(0, N.SERVE_SCANS_PARTIAL)
                self.emit(
                    "partial",
                    request.seq,
                    len(request.parts),
                    request.parts_dropped,
                )
        self._complete_request(request)

    def _complete_request(self, request: Request) -> None:
        """Common completion accounting (normal, partial, or hedge win)."""
        session = self._session_of(request.tenant)
        latency_us = self.loop.now - request.arrival_us
        self.latency.observe(latency_us)
        session.latency.observe(latency_us)
        session.completed += 1
        self.completed_total += 1
        self.emit("done", request.seq, request.tenant)
        every = self.config.rebalance_every
        if self.arbiter is not None and every and self.completed_total % every == 0:
            evicted = self.arbiter.rebalance(self.loop.now)
            self.emit(
                "rebalance",
                self.arbiter.rebalances,
                evicted,
                " ".join(f"{s:.4f}" for s in self.arbiter.shares),
            )
            if self.tier2 is not None:
                self.emit(
                    "l2split",
                    f"{self.arbiter.l2_share:.4f}",
                    self.tier2.budget_bytes,
                    self.tier2.used_bytes,
                )
                if self.obs_recorders:
                    self._flush_l2_obs()
                    recorder = self.obs_recorders[0]
                    recorder.event(
                        N.EV_L2_SPLIT,
                        share=round(self.arbiter.l2_share, 6),
                        budget=self.tier2.budget_bytes,
                        evicted=evicted,
                    )
        self._issue_after_think(session)

    # -- hedged reads -------------------------------------------------------

    def _maybe_hedge(self, request: Request, plan) -> None:
        """Arm a replica hedge for a slow point read."""
        res = self.res
        if (
            res is None
            or res.hedge_quantile <= 0.0
            or request.op.kind != "get"
            or len(plan) != 1
        ):
            return
        shard = self.shards[plan[0][0]]
        if shard.replica_engine is None or shard.down:
            return
        session = self._session_of(request.tenant)
        if session.latency.count < res.hedge_min_samples:
            return
        delay = max(
            res.hedge_floor_us, session.latency.quantile(res.hedge_quantile)
        )
        self.loop.after(
            delay, lambda: self._fire_hedge(request, shard.shard_id)
        )

    def _fire_hedge(self, request: Request, shard_id: int) -> None:
        shard = self.shards[shard_id]
        replica = shard.replica_engine
        if request.done or shard.down or replica is None:
            return
        assert shard.replica_clock is not None
        self.hedges += 1
        self._record(shard_id, N.SERVE_HEDGES)
        self.emit("hedge", request.seq, shard_id)
        if self.obs_recorders:
            recorder = self.obs_recorders[shard_id]
            recorder.advance_to(self.loop.now)
            recorder.event(
                N.EV_HEDGE, seq=request.seq, shard=shard_id, key=request.op.key
            )
        # The hedge reads the replica's durable state (its unreplayed
        # WAL may hold newer writes — hedged reads are allowed to be
        # stale, which the docs call out).  Replica time is charged on
        # the replica's own clock: hedges never consume primary service.
        replica.get(request.op.key)
        service_us = max(0.0, shard.replica_clock.charge())
        self.loop.after(
            service_us, lambda: self._complete_hedge(request, shard_id)
        )

    def _complete_hedge(self, request: Request, shard_id: int) -> None:
        if request.done:
            return
        request.done = True
        self.hedge_wins += 1
        self._record(shard_id, N.SERVE_HEDGE_WINS)
        self.emit("hedge_win", request.seq, shard_id)
        self._complete_request(request)

    # -- shard crash / failover --------------------------------------------

    def crash_shard(self, shard_id: int) -> None:
        """Kill one shard executor: volatile state gone, queue drained."""
        shard = self.shards[shard_id]
        res = self.res
        assert res is not None and res.fleet_faults is not None
        if shard.down or shard.replica_engine is None:
            return
        shard.down = True
        shard.crashed = True
        shard.busy = False
        shard.epoch += 1
        self.crashes += 1
        self.emit("crash", shard_id)
        self._record(shard_id, N.SERVE_CRASHES)
        if self.obs_recorders:
            recorder = self.obs_recorders[shard_id]
            recorder.advance_to(self.loop.now)
            recorder.event(N.EV_SHARD_CRASH, shard=shard_id)
        if shard.breaker is not None:
            shard.breaker.force_open(self.loop.now, "crash")
            self._flush_breaker_trace(shard_id)
        for victim in shard.queue.drain():
            self.emit("drop", victim.request.seq, shard_id, "shard_down")
            self._sub_dropped(victim, "shard_down")
        # Failover: detection delay plus WAL replay proportional to the
        # replication backlog, all charged to simulated time.
        faults = res.fleet_faults
        backlog = len(shard.replica_engine.tree.wal)
        recovery_us = (
            faults.failover_detect_us + faults.replay_per_record_us * backlog
        )
        shard.failover_us = recovery_us
        self.loop.after(
            recovery_us, lambda: self.promote_replica(shard_id)
        )

    def promote_replica(self, shard_id: int) -> None:
        """Promote the passive replica through crash recovery."""
        shard = self.shards[shard_id]
        replica = shard.replica_engine
        assert replica is not None and shard.replica_clock is not None
        # The replica replays its shipped WAL exactly like a restarted
        # primary: torn-tail verification, fresh MemTable, cold caches.
        replayed = replica.crash_and_recover()
        shard.wal_replayed = replayed
        if self.tier2 is not None:
            # The dead primary's SSTable ids would alias the promoted
            # engine's freshly-allocated ones inside the shared
            # namespace: purge the shard's L2 slice, then splice the
            # newcomer under the tier like any other member.
            dropped = self.tier2.drop_shard(shard_id)
            self.tier2.attach(shard_id, replica)
            self.emit("l2drop", shard_id, dropped)
        shard.engine = replica
        shard.clock = shard.replica_clock
        shard.clock.charge()  # absorb replay I/O into a fresh baseline
        shard.replica_engine = None
        shard.replica_clock = None
        shard.down = False
        shard.promoted = True
        self.promotions += 1
        self.emit("promote", shard_id, replayed, f"{shard.failover_us:.3f}")
        if self.obs_recorders:
            recorder = self.obs_recorders[shard_id]
            replica.attach_recorder(recorder)
            recorder.advance_to(self.loop.now)
            recorder.inc(N.SERVE_PROMOTIONS)
            recorder.observe(N.H_FAILOVER_US, shard.failover_us)
            recorder.event(
                N.EV_SHARD_PROMOTE, shard=shard_id, replayed=replayed
            )
        if shard.breaker is not None:
            # Probe the newcomer before trusting it with full traffic.
            shard.breaker.half_open(self.loop.now, "promoted")
            self._flush_breaker_trace(shard_id)
        if self.arbiter is not None:
            self.arbiter.replace_engine(shard_id, replica)
        self.maybe_start(shard_id)

    def _session_of(self, name: str) -> ClientSession:
        return self._by_name[name]

    # -- scenario phases ----------------------------------------------------

    def _phase_marker(self, index: int, name: str) -> None:
        """Trace (and record) a scenario phase boundary crossing."""
        self.emit("phase", index, name)
        if self.obs_recorders:
            recorder = self.obs_recorders[0]
            recorder.advance_to(self.loop.now)
            recorder.inc(N.SERVE_PHASE_TRANSITIONS)
            recorder.set_gauge(N.G_SCENARIO_PHASE, float(index))
            recorder.event(N.EV_PHASE, index=index, phase=name)

    # -- run ------------------------------------------------------------

    def run(self) -> ServeResult:
        res = self.res
        if res is not None and res.fleet_faults is not None:
            plan = FleetFaultPlan(res.fleet_faults, self.config.num_shards)
            for crash in plan:
                self.loop.at(
                    crash.at_us,
                    (lambda sid: lambda: self.crash_shard(sid))(crash.shard_id),
                )
        schedule = self.config.schedule
        if schedule is not None:
            for index, (start, phase) in enumerate(
                zip(schedule.phase_starts(), schedule.phases)
            ):
                self.loop.at(
                    start,
                    (lambda i, n: lambda: self._phase_marker(i, n))(
                        index, phase.name
                    ),
                )
        for session in self.sessions:
            if isinstance(session, ScriptedSession):
                self.loop.after(
                    session.arrival_delay_us(),
                    (lambda s: lambda: self.issue_scripted(s))(session),
                )
            else:
                self.loop.after(
                    session.next_delay_us(),
                    (lambda s: lambda: self.issue(s))(session),
                )
        self.loop.run()
        if sanitize.env_enabled():
            # End-of-run full sweep, mirroring window-boundary sweeps.
            for shard in self.shards:
                shard.queue.check_invariants()
                if shard.breaker is not None:
                    shard.breaker.check_invariants()
            if self.arbiter is not None:
                self.arbiter.check_invariants()
            if self.ladder is not None:
                self.ladder.check_invariants()
            if self.tier2 is not None:
                self.tier2.check_invariants()
        return self._result()

    def _check_acked_writes(self) -> tuple:
        """Read back every acknowledged write from durable fleet state.

        Runs after the per-shard stats snapshots so its reads do not
        perturb the reported counters.
        """
        lost = 0
        for key in sorted(self._acked):
            shard_id, value = self._acked[key]
            shard = self.shards[shard_id]
            if shard.down:
                continue  # crashed mid-run with no promotion (run ended)
            if shard.engine.tree.get(key) != value:
                lost += 1
        return lost, len(self._acked)

    def _result(self) -> ServeResult:
        duration = self.loop.now
        issued = sum(s.issued for s in self.sessions)
        tenants = [
            TenantResult(
                name=s.name,
                mode=s.mode,
                issued=s.issued,
                completed=s.completed,
                rejected=s.rejected,
                latency=s.latency,
            )
            for s in self.sessions
        ]
        shard_results = []
        for shard in self.shards:
            shard.engine.flush_window()
            shard_results.append(
                ShardResult(
                    shard_id=shard.shard_id,
                    keys_owned=shard.keys_owned,
                    subrequests_served=shard.queue.served,
                    disk_reads=shard.engine.tree.disk.block_reads_total,
                    budget_bytes=shard.engine.cache_budget_total,
                    peak_queue_depth=shard.queue.peak_depth,
                    rejected_at=shard.queue.rejected,
                    busy_us=shard.busy_us,
                    crashed=shard.crashed,
                    promoted=shard.promoted,
                    failover_us=shard.failover_us,
                    wal_replayed=shard.wal_replayed,
                )
            )
        fleet_window = merge_windows(
            [shard.engine.collector.lifetime for shard in self.shards]
        )
        lost_acked, acked_checked = 0, 0
        if self._acked:
            lost_acked, acked_checked = self._check_acked_writes()
        breaker_log: List[str] = []
        degrade_log: List[str] = []
        if self.res is not None:
            for shard in self.shards:
                if shard.breaker is None:
                    continue
                for time_us, src, dst, reason in shard.breaker.transitions:
                    breaker_log.append(
                        f"{time_us:.3f} shard{shard.shard_id} "
                        f"{src}->{dst} {reason}"
                    )
            breaker_log.sort()
            assert self.ladder is not None
            degrade_log = [
                f"{time_us:.3f} L{src}->L{dst} pressure={pressure:.4f}"
                for time_us, src, dst, pressure in self.ladder.transitions
            ]
        l2_probes = l2_hits = l2_demotions = l2_admits = l2_rejects = 0
        l2_ghost_hits = l2_evictions = 0
        l2_budget = l2_used = 0
        l2_share_final = 0.0
        l2_log: List[str] = []
        if self.tier2 is not None:
            self._flush_l2_obs()  # fold the tail beyond the last rebalance
            cache = self.tier2.cache
            for shard in self.shards:
                client = shard.engine.tier2_client
                if client is None:
                    continue
                l2_probes += client.probes
                l2_hits += client.hits
                l2_demotions += client.demotions
                l2_admits += client.admits
            l2_rejects = l2_demotions - l2_admits
            l2_ghost_hits = cache.ghost_hits
            l2_evictions = cache.evictions
            l2_budget = self.tier2.budget_bytes
            l2_used = self.tier2.used_bytes
            l2_share_final = (
                l2_budget / self.config.cache_bytes
                if self.config.cache_bytes
                else 0.0
            )
            if self.arbiter is not None:
                l2_log = [
                    f"{time_us:.3f} share={share:.4f}"
                    for time_us, share in self.arbiter.l2_history
                ]
        obs_fleet_windows: List[WindowSnapshot] = []
        if self.obs_recorders:
            for recorder in self.obs_recorders:
                recorder.advance_to(duration)
            obs_fleet_windows = merge_window_snapshots(
                [r.metrics.windows for r in self.obs_recorders]
            )
        return ServeResult(
            config=self.config,
            duration_us=duration,
            issued=issued,
            completed=self.completed_total,
            rejected=self.rejected_total,
            throughput_qps=(
                self.completed_total / (duration / 1e6) if duration > 0 else 0.0
            ),
            latency=self.latency,
            queue_wait=self.queue_wait,
            tenants=tenants,
            shards=shard_results,
            fleet_window=fleet_window,
            rebalances=self.arbiter.rebalances if self.arbiter else 0,
            evictions_forced=(
                self.arbiter.evictions_forced if self.arbiter else 0
            ),
            trace_digest=self._hasher.hexdigest(),
            trace=self.trace,
            shed_by_reason=self.shed_by_reason,
            breaker_log=breaker_log,
            degrade_log=degrade_log,
            crashes=self.crashes,
            promotions=self.promotions,
            hedges=self.hedges,
            hedge_wins=self.hedge_wins,
            scans_partial=self.scans_partial,
            lost_acked_writes=lost_acked,
            acked_writes_checked=acked_checked,
            obs_recorders=self.obs_recorders,
            obs_fleet_windows=obs_fleet_windows,
            l2_probes=l2_probes,
            l2_hits=l2_hits,
            l2_demotions=l2_demotions,
            l2_admits=l2_admits,
            l2_rejects=l2_rejects,
            l2_ghost_hits=l2_ghost_hits,
            l2_evictions=l2_evictions,
            l2_budget_bytes=l2_budget,
            l2_used_bytes=l2_used,
            l2_share_final=l2_share_final,
            l2_log=l2_log,
        )


def run_serve(config: ServeConfig) -> ServeResult:
    """Run one deterministic serving simulation end to end."""
    return _Simulation(config).run()
