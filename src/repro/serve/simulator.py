"""The deterministic multi-tenant serving simulator.

Composes the serving layer end to end: N client sessions issue
operations into a shard router; each shard is an independent seeded
engine (its own LSM tree + caches) behind a bounded request queue and a
single logical server; service times are charged from the sim clock's
cost-model deltas, so per-request latency = queue wait + metered engine
work, in simulated microseconds.  A global budget arbiter periodically
re-splits the fleet cache budget across shards from their window
exports.

:class:`_Simulation` is a kernel: sessions hand arrivals to
``_arrive``, which plans and queues them; shard servers drain their
queues in service slots (``maybe_start`` / ``complete``); finished
requests are accounted in ``finish_request`` and periodically trigger a
budget rebalance.  Three optional parts exist only when switched on:

* the failure model (:class:`~repro.serve.resilience.FailureModel`,
  ``ServeConfig.resilience``): WAL-shipped passive replicas, seeded
  shard crashes with replica promotion, per-shard circuit breakers,
  hedged point reads and a degradation ladder;
* the shared L2 (:class:`~repro.serve.tier2.Tier2Coordinator`,
  ``ServeConfig.l2_budget_bytes``);
* per-shard obs recorders (``ServeConfig.obs``), written only through
  :meth:`_Simulation.recorder`.

Each emits its own trace records and fills its own result fields, so a
run with a part off is byte-identical to a simulator without it.

Everything is event-driven off one :class:`~repro.serve.events.EventLoop`
and every random draw comes from per-component seeded generators, so a
configuration reproduces byte-for-byte: the event trace digest, the
latency histograms, and every counter are pure functions of the config.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro import sanitize
from repro.bench.harness import OpResult
from repro.bench.simclock import SimClock
from repro.bench.strategies import build_engine
from repro.core.engine import KVEngine
from repro.core.stats import merge_windows
from repro.errors import ConfigError
from repro.lsm.options import LSMOptions
from repro.lsm.tree import LSMTree
from repro.obs import names as N
from repro.obs.metrics import Histogram, merge_window_snapshots
from repro.obs.recorder import ObsRecorder
from repro.serve.arbiter import BudgetArbiter
from repro.serve.events import EventLoop
from repro.serve.queueing import Request, RequestQueue, SubRequest
from repro.serve.resilience import Failover, FailureModel, ResilienceConfig
from repro.serve.result import ServeResult, ShardResult, TenantResult
from repro.serve.router import ShardRouter
from repro.serve.session import (
    LATENCY_GROWTH,
    ClientSession,
    PhaseSlot,
    ScriptedSession,
    TenantConfig,
)
from repro.serve.tier2 import Tier2Coordinator
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
    #: Per-op completion deadline charged against queue wait; expired
    #: sub-requests are shed at dequeue (0 disables).
    op_deadline_us: float = 0.0
    #: Fleet failure handling; None keeps the legacy byte-identical run.
    resilience: Optional[ResilienceConfig] = None
    #: Attach an ObsRecorder to every shard engine.  Off by default so
    #: the golden fingerprints and the perf gate see an untouched run.
    obs: bool = False
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

    def lsm_options(self) -> LSMOptions:
        """Every shard tree's options (``LSMOptions`` defaults elsewhere)."""
        return LSMOptions(
            memtable_entries=self.memtable_entries,
            entries_per_sstable=self.entries_per_sstable,
        )


@dataclass
class _Shard:
    """One shard's engine, queue, clock, and single logical server."""

    shard_id: int
    engine: KVEngine
    queue: RequestQueue
    clock: SimClock
    keys_owned: int
    busy: bool = False
    busy_us: float = 0.0
    #: A crashed shard serves nothing until its replica is promoted;
    #: each crash starts a new epoch, killing in-flight work.
    down: bool = False
    epoch: int = 0
    #: This shard's part in the failure model (None when it is off).
    failover: Optional[Failover] = None


def _shard_engine(
    config: ServeConfig, shard_id: int, ids: List[int], seed: int
) -> KVEngine:
    """One shard engine over a freshly bulk-loaded tree.

    Primary and replica share the durable base (the bulk-load seed
    depends only on the shard) and differ only in the engine ``seed``.
    Key-space-growth schedules preload only a prefix of the keyspace;
    the rest comes into existence through the scenario's writes.  Shard
    L1s split the pool left after the shared tier's carve-out (the
    whole budget when tiering is off); shard 0 takes the remainder.
    """
    preload = config.num_keys
    if config.schedule is not None:
        preload = config.schedule.preload_keys
    pool = config.l1_pool_bytes
    budget = pool // config.num_shards
    if shard_id == 0:
        budget = pool - budget * (config.num_shards - 1)
    tree = LSMTree(config.lsm_options())
    tree.bulk_load(
        ((key_of(i), value_of(i)) for i in ids if i < preload),
        seed=7 + shard_id,
    )
    engine = build_engine(config.strategy, tree, budget, seed=seed)
    engine.window_size = config.window_size
    return engine


def _build_shards(config: ServeConfig, slices: List[List[int]]) -> List[_Shard]:
    """One primary per key slice (the router owns the full key range even
    when the schedule preloads only a prefix)."""
    shards: List[_Shard] = []
    for shard_id, ids in enumerate(slices):
        engine = _shard_engine(
            config, shard_id, ids, config.seed + 101 * (shard_id + 1)
        )
        queue = RequestQueue(shard_id, config.queue_depth)
        clock = SimClock(engine)
        shards.append(_Shard(shard_id, engine, queue, clock, len(ids)))
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
        self.router = ShardRouter(
            config.num_shards, config.spec.num_keys, config.partition
        )
        slices = self.router.shard_ids()
        self.shards = _build_shards(config, slices)
        self.tier2: Optional[Tier2Coordinator] = None
        if config.tier2_active:
            self.tier2 = Tier2Coordinator.for_fleet(config, self.shards)
        self.obs_recorders: List[ObsRecorder] = []
        if config.obs:
            for shard in self.shards:
                recorder = ObsRecorder()
                shard.engine.attach_recorder(recorder)
                self.obs_recorders.append(recorder)
        if config.schedule is not None:
            self.sessions = _build_scripted_sessions(config)
        else:
            self.sessions = _build_sessions(config)
        self.by_name: Dict[str, ClientSession] = {
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
        self.latency = Histogram(growth=LATENCY_GROWTH)
        self.queue_wait = Histogram(growth=LATENCY_GROWTH)
        self.completed_total = 0
        self.rejected_total = 0
        self.scans_partial = 0
        self.shed_by_reason: Dict[str, int] = {}
        self._next_seq = 0
        self._hasher = hashlib.sha256()
        self.trace: List[str] = []
        # Built last: its owner tenants are the first sessions, and it
        # schedules the seeded crashes before run() schedules arrivals.
        self.res: Optional[FailureModel] = None
        if config.resilience is not None:
            self.res = FailureModel(
                self,
                config.resilience,
                lambda sid: _shard_engine(
                    config, sid, slices[sid], config.seed + 7919 * (sid + 1)
                ),
            )

    # -- trace and obs -----------------------------------------------------

    def emit(self, kind: str, *fields: object) -> None:
        record = f"{self.loop.now:.3f} {kind} " + " ".join(
            str(f) for f in fields
        )
        self._hasher.update(record.encode())
        self._hasher.update(b"\n")
        if self.config.keep_trace:
            self.trace.append(record)

    def recorder(self, shard_id: int) -> Optional[ObsRecorder]:
        """The shard's obs recorder advanced to ``loop.now`` (None: obs off).

        Serving-layer time is richer than engine-work time (it includes
        queueing), so every serve-side recording carries an event-loop
        stamp.
        """
        if not self.obs_recorders:
            return None
        recorder = self.obs_recorders[shard_id]
        recorder.advance_to(self.loop.now)
        return recorder

    def record(self, shard_id: int, metric: str) -> None:
        """Bump a serve counter on a shard's recorder (obs runs only)."""
        recorder = self.recorder(shard_id)
        if recorder is not None:
            recorder.inc(metric)

    def shed(self, reason: str) -> None:
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1

    # -- issue / service / complete ---------------------------------------

    def issue(self, session: ClientSession) -> None:
        """One arrival: the session says which ops arrive now and when
        its next arrival is (None: it has none scheduled)."""
        ops, next_us = session.arrivals(self.loop.now, self.config.batch_size)
        if next_us is not None:
            self.loop.at(next_us, lambda: self.issue(session))
        if ops:
            self._arrive(session, ops)

    def _arrive(self, session: ClientSession, ops: List[Operation]) -> None:
        """Plan, build, and admit-or-shed every operation of one arrival.

        Queue admission is all-or-nothing per operation: if any target
        queue is full the whole request is shed and accounted at every
        full queue.  Shards start only once the whole burst is queued,
        each touched shard once, in shard order, so an idle shard's first
        service slot sees the sub-batch the router assigned it rather
        than a batch of one.
        """
        now = self.loop.now
        op_deadline_us = self.config.op_deadline_us
        deadline = now + op_deadline_us if op_deadline_us else 0.0
        res = self.res
        touched: Set[int] = set()
        for op in ops:
            seq = self._next_seq
            self._next_seq += 1
            self.emit("arrive", seq, session.name, op.kind)
            if res is None:
                plan, dropped = self.router.plan(op), []
            else:
                plan, dropped = res.plan(session, seq, op)
                if not plan:
                    continue
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
                self.shed("queue_full")
                self.reject(session, "shed", seq)
                continue
            for shard_id, sub_op in plan:
                shard = self.shards[shard_id]
                shard.queue.push(
                    SubRequest(request, shard_id, sub_op, now, shard.epoch)
                )
            touched.update(shard_id for shard_id, _ in plan)
            if res is not None:
                res.maybe_hedge(request, plan)
        for shard_id in sorted(touched):
            self.maybe_start(shard_id)

    def reject(
        self, session: ClientSession, record: str, seq: int, *fields: object
    ) -> None:
        """Account one failed request and let its closed-loop client move on."""
        session.rejected += 1
        self.rejected_total += 1
        self.emit(record, seq, session.name, *fields)
        self._issue_after_think(session)

    def _issue_after_think(self, session: ClientSession) -> None:
        """Closed loop: the next issue follows this request's outcome."""
        if session.config.mode == "closed":
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
                self.record(shard_id, N.SERVE_SHED_DEADLINE)
                self.emit("expire", dead.request.seq, shard_id)
                self.sub_dropped(dead, "deadline")
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
        self.recorder(shard_id)  # stamp the engine's recordings below
        # Execute now and charge the metered delta as this slot's service
        # time; event callbacks are synchronous, so no other shard's work
        # can leak into this clock window.
        results: Sequence[OpResult]
        if len(subs) == 1:
            results = [self.router.execute(shard.engine, subs[0].op)]
        else:
            results = self.router.execute_batch(
                shard.engine, [sub.op for sub in subs]
            )
        failover = shard.failover
        for sub, result in zip(subs, results):
            if sub.request.parts is not None:
                assert isinstance(result, list), "a scan sub yields entries"
                sub.request.parts.append(result)
            if failover is not None:
                failover.served(sub)
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
                self.sub_dropped(sub, "crash_inflight")
            return
        shard.busy = False
        failover = shard.failover
        for sub in subs:
            request = sub.request
            request.remaining -= 1
            self.emit("finish", request.seq, shard_id)
            if failover is not None:
                failover.finished(sub, self.loop.now)
            if request.remaining == 0:
                self.finish_request(request)
        self.maybe_start(shard_id)

    def sub_dropped(self, sub: SubRequest, reason: str) -> None:
        """Account one sub-request that will never produce a result."""
        self.shed(reason)
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
            self.reject(self.by_name[request.tenant], "fail", request.seq)
            return
        if request.parts is not None:
            # The gather half of scatter-gather; the merged result is the
            # request's answer (dropped here — correctness is unit-tested
            # against an unsharded oracle).
            self.router.merge_scan(request.parts, request.op.length)
            if request.parts_dropped:
                # Explicitly partial: some shards contributed nothing.
                self.scans_partial += 1
                self.record(0, N.SERVE_SCANS_PARTIAL)
                self.emit(
                    "partial",
                    request.seq,
                    len(request.parts),
                    request.parts_dropped,
                )
        self.complete_request(request)

    def complete_request(self, request: Request) -> None:
        """Common completion accounting (normal, partial, or hedge win)."""
        session = self.by_name[request.tenant]
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
                self.tier2.note_rebalance(
                    self.arbiter.l2_share, evicted, self.emit, self.recorder(0)
                )
        self._issue_after_think(session)

    def _phase_marker(self, index: int, name: str) -> None:
        """Trace (and record) a scenario phase boundary crossing."""
        self.emit("phase", index, name)
        recorder = self.recorder(0)
        if recorder is not None:
            recorder.inc(N.SERVE_PHASE_TRANSITIONS)
            recorder.set_gauge(N.G_SCENARIO_PHASE, float(index))
            recorder.event(N.EV_PHASE, index=index, phase=name)

    # -- run ------------------------------------------------------------

    def run(self) -> ServeResult:
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
            self.loop.after(
                session.next_delay_us(),
                (lambda s: lambda: self.issue(s))(session),
            )
        self.loop.run()
        if sanitize.env_enabled():
            # End-of-run full sweep, mirroring window-boundary sweeps;
            # the optional parts sweep their own in ``finish``.
            for shard in self.shards:
                shard.queue.check_invariants()
            if self.arbiter is not None:
                self.arbiter.check_invariants()
        return self._result()

    def _result(self) -> ServeResult:
        duration = self.loop.now
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
                )
            )
        result = ServeResult(
            config=self.config,
            duration_us=duration,
            issued=sum(s.issued for s in self.sessions),
            completed=self.completed_total,
            rejected=self.rejected_total,
            throughput_qps=(
                self.completed_total / (duration / 1e6) if duration > 0 else 0.0
            ),
            latency=self.latency,
            queue_wait=self.queue_wait,
            tenants=[
                TenantResult(
                    name=s.name,
                    mode=s.config.mode,
                    issued=s.issued,
                    completed=s.completed,
                    rejected=s.rejected,
                    latency=s.latency,
                )
                for s in self.sessions
            ],
            shards=shard_results,
            fleet_window=merge_windows(
                [shard.engine.collector.lifetime for shard in self.shards]
            ),
            rebalances=self.arbiter.rebalances if self.arbiter else 0,
            evictions_forced=(
                self.arbiter.evictions_forced if self.arbiter else 0
            ),
            trace_digest=self._hasher.hexdigest(),
            trace=self.trace,
            shed_by_reason=self.shed_by_reason,
            scans_partial=self.scans_partial,
            obs_recorders=self.obs_recorders,
        )
        # The failure model reads back acked writes through the shards'
        # read paths, so it runs before the shared tier takes its counts.
        if self.res is not None:
            self.res.finish(result)
        if self.tier2 is not None:
            self.tier2.finish(
                result,
                [shard.engine for shard in self.shards],
                self.arbiter,
                self.recorder(0),
            )
        if self.obs_recorders:
            for recorder in self.obs_recorders:
                recorder.advance_to(duration)
            result.obs_fleet_windows = merge_window_snapshots(
                [r.metrics.windows for r in self.obs_recorders]
            )
        return result


def run_serve(config: ServeConfig) -> ServeResult:
    """Run one deterministic serving simulation end to end."""
    return _Simulation(config).run()
