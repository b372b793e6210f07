"""The serving fleet's failure model and its two state machines.

The breaker and the ladder are pure, deterministic state machines over
*simulated* time — no wall clock, no ambient randomness — so two
same-seed runs drive them through identical transition sequences.
Every transition is appended to an audit log the failure model folds
into the fleet fingerprint and mirrors into the obs trace, making
breaker flaps and degradation steps first-class reproducible decisions,
like cache admissions.

* :class:`CircuitBreaker` — one per shard, classic closed / open /
  half-open.  Failures (timeouts, crash-killed sub-requests) trip it
  open; after a cooldown it half-opens and a probe budget decides
  whether to close again.  The router consults ``allow()`` before
  dispatching point ops; scans route past an open breaker only as
  explicitly-partial results.
* :class:`DegradationLadder` — fleet-wide overload response.  Driven by
  aggregate queue pressure (and forced non-zero while any shard is
  down), it sheds progressively: scans first (L1), then non-resident
  point reads (L2), then everything but owner-tenant traffic (L3) —
  replacing the blunt everything-or-nothing queue shed with a policy
  that keeps the cheapest, most-valuable work flowing.
* :class:`FailureModel` — what the simulator runs when
  ``ServeConfig.resilience`` is set: ladder and breaker gating, WAL
  shipping to passive replicas with an acked-write ledger, hedged point
  reads, and seeded shard crashes with replica promotion.  Each shard's
  share (replica, breaker, failover accounting) is a :class:`Failover`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro import sanitize
from repro.bench.simclock import SimClock
from repro.core.engine import KVEngine
from repro.errors import ConfigError, InvariantError
from repro.faults.fleet import FleetFaultConfig, FleetFaultPlan
from repro.obs import names as N
from repro.serve.queueing import Request, SubRequest
from repro.serve.session import ClientSession
from repro.workloads.generator import Operation

if TYPE_CHECKING:  # both import this module
    from repro.serve.result import ServeResult
    from repro.serve.simulator import _Simulation

#: A planned arrival: ``(shard, sub-operation)`` pairs.
Plan = List[Tuple[int, Operation]]

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATES = (CLOSED, OPEN, HALF_OPEN)

#: Degradation-ladder levels, lowest to highest severity.
LEVEL_NORMAL = 0
LEVEL_SHED_SCANS = 1
LEVEL_SHED_COLD_READS = 2
LEVEL_OWNERS_ONLY = 3

_MAX_LEVEL = LEVEL_OWNERS_ONLY


#: Rolling outcome-window length per shard breaker.
BREAKER_WINDOW = 16
#: Failure fraction over the window that trips a breaker.
BREAKER_FAILURE_THRESHOLD = 0.5
#: Outcomes required before the threshold is consulted.
BREAKER_MIN_SAMPLES = 8
#: Cooldown before an open breaker half-opens.
BREAKER_OPEN_US = 20_000.0
#: Consecutive successes required to close from half-open.
BREAKER_HALF_OPEN_PROBES = 4

#: Fleet queue-pressure hysteresis band for stepping the ladder up /
#: down (fractions of total queue capacity).
DEGRADE_ENTER_FRAC = 0.75
DEGRADE_EXIT_FRAC = 0.40
#: Minimum simulated time between ladder moves (anti-flap).
DEGRADE_DWELL_US = 5_000.0
#: The first N sessions are *owners* — the traffic L3 protects.
OWNER_TENANTS = 1

#: Simulated time between a crash and the router *noticing* it
#: (health-check interval stand-in); charged before replay starts.
FAILOVER_DETECT_US = 2_000.0
#: Simulated cost of replaying one shipped WAL record during replica
#: promotion — failover time scales with the replication backlog, like
#: a real log-structured store.
REPLAY_PER_RECORD_US = 25.0


@dataclass
class ResilienceConfig:
    """Knobs for the serving fleet's failure handling.

    Attaching one of these to :class:`~repro.serve.simulator.ServeConfig`
    switches the resilience layer on: a passive WAL-shipping replica
    per shard (for crash failover and hedged reads), a circuit breaker
    per shard and the degradation ladder.  ``None`` (the default) keeps
    the legacy byte-identical behaviour.

    Attributes
    ----------
    fleet_faults:
        Seeded shard-crash schedule (None = no crashes; breakers,
        hedging, and the ladder still run).
    op_timeout_us:
        Service time above which a sub-request counts as a breaker
        failure (0 disables; crashes still count).
    hedge_quantile:
        Per-tenant latency quantile after which a point read is hedged
        to the replica (0 disables hedging).
    hedge_floor_us:
        Lower bound on the hedge delay, guarding cold histograms.
    hedge_min_samples:
        Completed ops a tenant needs before its quantile is trusted.
    """

    fleet_faults: Optional[FleetFaultConfig] = None
    op_timeout_us: float = 0.0
    hedge_quantile: float = 0.0
    hedge_floor_us: float = 500.0
    hedge_min_samples: int = 32

    def __post_init__(self) -> None:
        if self.op_timeout_us < 0:
            raise ConfigError("op_timeout_us must be >= 0")
        if not 0.0 <= self.hedge_quantile < 1.0:
            raise ConfigError("hedge_quantile must lie in [0, 1)")
        if self.hedge_floor_us < 0:
            raise ConfigError("hedge_floor_us must be >= 0")
        if self.hedge_min_samples <= 0:
            raise ConfigError("hedge_min_samples must be positive")


class CircuitBreaker(sanitize.Sanitized):
    """Per-shard health gate: closed / open / half-open.

    All transitions are functions of recorded outcomes and simulated
    time passed in by the caller; the breaker never looks at a clock of
    its own.  The audit log (``transitions``) is part of the run's
    deterministic output.
    """

    __slots__ = (
        "shard_id",
        "on_transition",
        "state",
        "_window",
        "_reopen_at_us",
        "_probes_left",
        "refusals",
        "transitions",
    )

    def __init__(
        self,
        shard_id: int,
        on_transition: Optional[Callable[[str, str, str], None]] = None,
    ) -> None:
        super().__init__()
        self.shard_id = shard_id
        #: Called with ``(from, to, reason)`` after each transition.
        self.on_transition = on_transition
        self.state = CLOSED
        #: Rolling outcome window: True = failure.
        self._window: List[bool] = []
        self._reopen_at_us = 0.0
        self._probes_left = 0
        self.refusals = 0
        #: Audit log of ``(time_us, from, to, reason)``.
        self.transitions: List[Tuple[float, str, str, str]] = []

    # -- transitions -------------------------------------------------------

    def _transition(self, now_us: float, to: str, reason: str) -> None:
        src, self.state = self.state, to
        self.transitions.append((now_us, src, to, reason))
        if to == OPEN:
            self._reopen_at_us = now_us + BREAKER_OPEN_US
            self._window.clear()
        elif to == HALF_OPEN:
            self._probes_left = BREAKER_HALF_OPEN_PROBES
        elif to == CLOSED:
            self._window.clear()
        self._after_mutation()
        if self.on_transition is not None:
            self.on_transition(src, to, reason)

    def _tick(self, now_us: float) -> None:
        """Lazy time-driven transition: open cools down to half-open."""
        if self.state == OPEN and now_us >= self._reopen_at_us:
            self._transition(now_us, HALF_OPEN, "cooldown")

    def force_open(self, now_us: float, reason: str) -> None:
        """Trip the breaker immediately (shard crash)."""
        if self.state != OPEN:
            self._transition(now_us, OPEN, reason)
        else:
            self._reopen_at_us = now_us + BREAKER_OPEN_US

    def half_open(self, now_us: float, reason: str) -> None:
        """Move straight to half-open (replica promoted; probe it)."""
        if self.state != HALF_OPEN:
            self._transition(now_us, HALF_OPEN, reason)

    # -- outcomes ----------------------------------------------------------

    def record_success(self, now_us: float) -> None:
        """One sub-request served within its timeout."""
        self._tick(now_us)
        if self.state == HALF_OPEN:
            self._probes_left -= 1
            if self._probes_left <= 0:
                self._transition(now_us, CLOSED, "probes_passed")
            return
        self._push(False, now_us)

    def record_failure(self, now_us: float, reason: str = "timeout") -> None:
        """One sub-request timed out or died with its shard."""
        self._tick(now_us)
        if self.state == HALF_OPEN:
            self._transition(now_us, OPEN, f"probe_{reason}")
            return
        self._push(True, now_us)

    def _push(self, failed: bool, now_us: float) -> None:
        window = self._window
        window.append(failed)
        if len(window) > BREAKER_WINDOW:
            del window[0]
        if (
            self.state == CLOSED
            and len(window) >= BREAKER_MIN_SAMPLES
            and sum(window) / len(window) >= BREAKER_FAILURE_THRESHOLD
        ):
            self._transition(now_us, OPEN, "failure_rate")
        else:
            self._after_mutation()

    # -- gate --------------------------------------------------------------

    def allow(self, now_us: float) -> bool:
        """Whether the router may dispatch a point op to this shard."""
        self._tick(now_us)
        if self.state == OPEN:
            self.refusals += 1
            return False
        return True

    # -- sanitizer protocol ------------------------------------------------

    def check_invariants(self) -> None:
        """State is legal and the audit log is a connected chain."""
        if self.state not in _STATES:
            raise InvariantError(
                f"CircuitBreaker shard {self.shard_id}: unknown state "
                f"{self.state!r}"
            )
        if len(self._window) > BREAKER_WINDOW:
            raise InvariantError(
                f"CircuitBreaker shard {self.shard_id}: window overflow"
            )
        prev = CLOSED
        for time_us, src, dst, _reason in self.transitions:
            if src != prev or dst not in _STATES or src == dst:
                raise InvariantError(
                    f"CircuitBreaker shard {self.shard_id}: broken audit "
                    f"chain at {time_us} ({src} -> {dst})"
                )
            prev = dst
        if prev != self.state:
            raise InvariantError(
                f"CircuitBreaker shard {self.shard_id}: audit tail {prev} "
                f"!= state {self.state}"
            )


class DegradationLadder(sanitize.Sanitized):
    """Fleet-wide graceful-degradation state machine (levels 0-3).

    ``observe()`` is called at every arrival with the current fleet
    queue pressure; levels move one step at a time through a hysteresis
    band with a minimum dwell between moves.  While any shard is down
    the ladder is floored at L1 (scans shed), since scatter-gather over
    a dead shard could only ever be partial.
    """

    __slots__ = (
        "on_transition",
        "level",
        "_last_move_us",
        "transitions",
    )

    def __init__(
        self, on_transition: Optional[Callable[[int, int, float], None]] = None
    ) -> None:
        super().__init__()
        #: Called with ``(from, to, pressure)`` after each move.
        self.on_transition = on_transition
        self.level = LEVEL_NORMAL
        self._last_move_us = float("-inf")
        #: Audit log of ``(time_us, from_level, to_level, pressure)``.
        self.transitions: List[Tuple[float, int, int, float]] = []

    def observe(self, pressure: float, any_down: bool, now_us: float) -> None:
        """Re-evaluate the level from fleet queue pressure.

        ``pressure`` is waiting sub-requests over total queue capacity.
        """
        floor = LEVEL_SHED_SCANS if any_down else LEVEL_NORMAL
        target = self.level
        if now_us - self._last_move_us >= DEGRADE_DWELL_US:
            if pressure >= DEGRADE_ENTER_FRAC and self.level < _MAX_LEVEL:
                target = self.level + 1
            elif pressure <= DEGRADE_EXIT_FRAC and self.level > floor:
                target = self.level - 1
        target = max(target, floor)
        if target != self.level:
            src, self.level = self.level, target
            self.transitions.append((now_us, src, target, pressure))
            self._last_move_us = now_us
            self._after_mutation()
            if self.on_transition is not None:
                self.on_transition(src, target, pressure)

    def admits(self, kind: str, owner: bool, resident: bool) -> Optional[str]:
        """Gate one arriving request; returns a drop reason or None.

        Owner-tenant traffic is never degraded below the L1 scan shed:
        protecting it is the entire point of L3.
        """
        level = self.level
        if level == LEVEL_NORMAL:
            return None
        effective = min(level, LEVEL_SHED_SCANS) if owner else level
        if kind == "scan" and effective >= LEVEL_SHED_SCANS:
            return "degraded_scan"
        if effective >= LEVEL_OWNERS_ONLY:
            return "degraded_non_owner"
        if kind == "get" and effective >= LEVEL_SHED_COLD_READS and not resident:
            return "degraded_cold_read"
        return None

    # -- sanitizer protocol ------------------------------------------------

    def check_invariants(self) -> None:
        """Level is in range; the audit log is a stepwise chain."""
        if not LEVEL_NORMAL <= self.level <= _MAX_LEVEL:
            raise InvariantError(
                f"DegradationLadder: level {self.level} out of range"
            )
        prev = LEVEL_NORMAL
        for time_us, src, dst, _pressure in self.transitions:
            if src != prev or not LEVEL_NORMAL <= dst <= _MAX_LEVEL:
                raise InvariantError(
                    f"DegradationLadder: broken audit chain at {time_us} "
                    f"({src} -> {dst})"
                )
            prev = dst
        if prev != self.level:
            raise InvariantError(
                f"DegradationLadder: audit tail {prev} != level {self.level}"
            )


@dataclass(eq=False)
class Failover:
    """One shard's part in the failure model.

    The shard's passive replica (WAL-shipped; consumed by promotion),
    its circuit breaker, and its failover accounting.  The kernel calls
    :meth:`served` after each executed sub-request and :meth:`finished`
    after each completed one.
    """

    breaker: CircuitBreaker
    replica: Optional[KVEngine]
    replica_clock: Optional[SimClock]
    #: The failure model's durability ledger, shared by every shard:
    #: key -> (owner shard, last acked value).
    acked: Dict[str, Tuple[int, Optional[str]]]
    op_timeout_us: float
    crashed: bool = False
    promoted: bool = False
    failover_us: float = 0.0
    wal_replayed: int = 0

    def served(self, sub: SubRequest) -> None:
        """Replicate one executed write and enter it in the ledger.

        Shipping happens before the ack completes, so an acknowledged
        write is always either in a live primary or replayable from the
        replica's log — the no-lost-acked-writes guarantee.
        """
        op = sub.op
        if op.kind not in ("put", "delete"):
            return
        value = (op.value or "") if op.kind == "put" else None
        if self.replica is not None:
            self.replica.tree.wal.append(op.key, value)
        # The ledger tracks the last acked value per key even after a
        # promotion consumed the replica: the promoted engine is then
        # the (sole) durable home of subsequent writes.
        self.acked[op.key] = (self.breaker.shard_id, value)

    def finished(self, sub: SubRequest, now_us: float) -> None:
        """Feed one completed sub-request's outcome to the breaker."""
        timeout = self.op_timeout_us
        if timeout and now_us - sub.start_us > timeout:
            self.breaker.record_failure(now_us, "timeout")
        else:
            self.breaker.record_success(now_us)


def _breaker_moved(
    sim: "_Simulation", shard_id: int, src: str, dst: str, reason: str
) -> None:
    """Trace (and record) one breaker transition."""
    sim.emit("breaker", shard_id, f"{src}->{dst}", reason)
    recorder = sim.recorder(shard_id)
    if recorder is not None:
        recorder.inc(N.SERVE_BREAKER_TRANSITIONS)
        recorder.event(N.EV_BREAKER, shard=shard_id, src=src, dst=dst, reason=reason)


def _ladder_moved(sim: "_Simulation", src: int, dst: int, pressure: float) -> None:
    """Trace (and record) one degradation-ladder move."""
    sim.emit("degrade", src, dst, f"{pressure:.4f}")
    recorder = sim.recorder(0)
    if recorder is not None:
        recorder.set_gauge(N.G_DEGRADE_LEVEL, float(dst))
        recorder.event(N.EV_DEGRADE, src=src, dst=dst, pressure=pressure)


def _resident(key: str, engine: KVEngine) -> bool:
    """Best-effort residency probe for the ladder's L2 gate."""
    probed = False
    for cache in (engine.range_cache, engine.kv_cache):
        if cache is not None:
            probed = True
            if key in cache:
                return True
    # Engines with no probe-capable cache (pure block strategy) cannot
    # distinguish cold keys; treat reads as resident.
    return not probed


class FailureModel:
    """The fleet's failure handling, built only when it is configured.

    Gates each arrival through the ladder and the breakers, ships every
    executed write to its shard's replica (``spawn_replica`` builds
    one), hedges slow point reads to the replica, and kills and
    promotes shards on a seeded schedule.  It emits its own trace
    records and obs events, and fills its own
    :class:`~repro.serve.result.ServeResult` fields.
    """

    def __init__(
        self,
        sim: "_Simulation",
        config: ResilienceConfig,
        spawn_replica: Callable[[int], KVEngine],
    ) -> None:
        # Weak: the kernel owns this model.  Nothing the model owns may
        # point back at it or at the kernel strongly, or every fleet
        # would be cyclic garbage that outlives its run.
        self.sim: "_Simulation" = weakref.proxy(sim)
        self.config = config
        self.ladder = DegradationLadder(partial(_ladder_moved, self.sim))
        self._owners: Set[str] = {s.name for s in sim.sessions[:OWNER_TENANTS]}
        self._queue_capacity = sim.config.num_shards * sim.config.queue_depth
        self.acked: Dict[str, Tuple[int, Optional[str]]] = {}
        self.hedges = 0
        self.hedge_wins = 0
        self.failovers: List[Failover] = []
        for shard in sim.shards:
            breaker = CircuitBreaker(
                shard.shard_id, partial(_breaker_moved, self.sim, shard.shard_id)
            )
            replica = spawn_replica(shard.shard_id)
            clock = SimClock(replica)
            failover = Failover(
                breaker, replica, clock, self.acked, config.op_timeout_us
            )
            shard.failover = failover
            self.failovers.append(failover)
        if config.fleet_faults is not None:
            for crash in FleetFaultPlan(config.fleet_faults, len(sim.shards)):
                sim.loop.at(
                    crash.at_us,
                    (lambda sid: lambda: self.crash(sid))(crash.shard_id),
                )

    # -- arrivals ------------------------------------------------------------

    def plan(
        self, session: ClientSession, seq: int, op: Operation
    ) -> Tuple[Plan, List[int]]:
        """Gate one arrival through the ladder and plan around sick shards.

        Returns ``(live_plan, dropped_shards)``; the plan is empty once
        the arrival has been rejected (and accounted) here.
        """
        sim = self.sim
        now = sim.loop.now
        shards = sim.shards
        # 1. Degradation ladder: re-evaluate, then gate this arrival.
        waiting = sum(len(s.queue) for s in shards)
        self.ladder.observe(
            waiting / self._queue_capacity, any(s.down for s in shards), now
        )
        resident = True
        if op.kind == "get" and self.ladder.level >= 2:
            target = shards[sim.router.shard_of_key(op.key)]
            resident = not target.down and _resident(op.key, target.engine)
        reason = self.ladder.admits(op.kind, session.name in self._owners, resident)
        if reason is not None:
            sim.record(0, N.SERVE_SHED_DEGRADED)
            sim.shed(reason)
            sim.reject(session, "shedr", seq, reason)
            return [], []
        # 2. Health-aware planning: route around dead / open shards.
        unavailable = {s.shard_id for s in shards if s.down}
        for shard, failover in zip(shards, self.failovers):
            if not shard.down and not failover.breaker.allow(now):
                unavailable.add(shard.shard_id)
        plan, dropped = sim.router.plan_healthy(op, unavailable)
        if not plan:
            for shard_id in dropped:
                sim.record(shard_id, N.SERVE_SHED_BREAKER)
            reason = (
                "shard_down" if any(shards[i].down for i in dropped) else "breaker_open"
            )
            sim.shed(reason)
            sim.reject(session, "shedr", seq, reason)
        return plan, dropped

    # -- hedged reads ----------------------------------------------------------

    def maybe_hedge(self, request: Request, plan: Plan) -> None:
        """Arm a replica hedge for a slow point read."""
        config = self.config
        if (
            config.hedge_quantile <= 0.0
            or request.op.kind != "get"
            or len(plan) != 1
        ):
            return
        shard_id = plan[0][0]
        if self.failovers[shard_id].replica is None or self.sim.shards[shard_id].down:
            return
        session = self.sim.by_name[request.tenant]
        if session.latency.count < config.hedge_min_samples:
            return
        delay = max(
            config.hedge_floor_us, session.latency.quantile(config.hedge_quantile)
        )
        self.sim.loop.after(delay, lambda: self._fire_hedge(request, shard_id))

    def _fire_hedge(self, request: Request, shard_id: int) -> None:
        sim = self.sim
        failover = self.failovers[shard_id]
        replica = failover.replica
        if request.done or sim.shards[shard_id].down or replica is None:
            return
        assert failover.replica_clock is not None
        self.hedges += 1
        sim.emit("hedge", request.seq, shard_id)
        recorder = sim.recorder(shard_id)
        if recorder is not None:
            recorder.inc(N.SERVE_HEDGES)
            recorder.event(
                N.EV_HEDGE, seq=request.seq, shard=shard_id, key=request.op.key
            )
        # The hedge reads the replica's durable state (its unreplayed
        # WAL may hold newer writes — hedged reads are allowed to be
        # stale, which the docs call out).  Replica time is charged on
        # the replica's own clock: hedges never consume primary service.
        replica.get(request.op.key)
        service_us = max(0.0, failover.replica_clock.charge())
        sim.loop.after(service_us, lambda: self._complete_hedge(request, shard_id))

    def _complete_hedge(self, request: Request, shard_id: int) -> None:
        if request.done:
            return
        request.done = True
        self.hedge_wins += 1
        self.sim.record(shard_id, N.SERVE_HEDGE_WINS)
        self.sim.emit("hedge_win", request.seq, shard_id)
        self.sim.complete_request(request)

    # -- shard crash / failover ------------------------------------------------

    def crash(self, shard_id: int) -> None:
        """Kill one shard executor: volatile state gone, queue drained."""
        sim = self.sim
        shard = sim.shards[shard_id]
        failover = self.failovers[shard_id]
        if shard.down or failover.replica is None:
            return
        shard.down = True
        shard.busy = False
        shard.epoch += 1
        failover.crashed = True
        sim.emit("crash", shard_id)
        recorder = sim.recorder(shard_id)
        if recorder is not None:
            recorder.inc(N.SERVE_CRASHES)
            recorder.event(N.EV_SHARD_CRASH, shard=shard_id)
        failover.breaker.force_open(sim.loop.now, "crash")
        for victim in shard.queue.drain():
            sim.emit("drop", victim.request.seq, shard_id, "shard_down")
            sim.sub_dropped(victim, "shard_down")
        # Failover: detection delay plus WAL replay proportional to the
        # replication backlog, all charged to simulated time.
        backlog = len(failover.replica.tree.wal)
        failover.failover_us = FAILOVER_DETECT_US + REPLAY_PER_RECORD_US * backlog
        sim.loop.after(failover.failover_us, lambda: self.promote(shard_id))

    def promote(self, shard_id: int) -> None:
        """Promote the passive replica through crash recovery."""
        sim = self.sim
        shard = sim.shards[shard_id]
        failover = self.failovers[shard_id]
        replica, clock = failover.replica, failover.replica_clock
        assert replica is not None and clock is not None
        # The replica replays its shipped WAL exactly like a restarted
        # primary: torn-tail verification, fresh MemTable, cold caches.
        replayed = replica.crash_and_recover()
        failover.wal_replayed = replayed
        if sim.tier2 is not None:
            sim.tier2.replace_shard(shard_id, replica, sim.emit)
        shard.engine = replica
        shard.clock = clock
        clock.charge()  # absorb replay I/O into a fresh baseline
        failover.replica = None
        failover.replica_clock = None
        shard.down = False
        failover.promoted = True
        sim.emit("promote", shard_id, replayed, f"{failover.failover_us:.3f}")
        recorder = sim.recorder(shard_id)
        if recorder is not None:
            replica.attach_recorder(recorder)
            recorder.inc(N.SERVE_PROMOTIONS)
            recorder.observe(N.H_FAILOVER_US, failover.failover_us)
            recorder.event(N.EV_SHARD_PROMOTE, shard=shard_id, replayed=replayed)
        # Probe the newcomer before trusting it with full traffic.
        failover.breaker.half_open(sim.loop.now, "promoted")
        if sim.arbiter is not None:
            sim.arbiter.replace_engine(shard_id, replica)
        sim.maybe_start(shard_id)

    # -- result ----------------------------------------------------------------

    def finish(self, result: "ServeResult") -> None:
        """Read back every acked write and fill this model's result fields.

        Runs after the kernel's per-shard snapshots, so its reads do not
        perturb the reported counters.
        """
        shards = self.sim.shards
        if sanitize.env_enabled():
            self.ladder.check_invariants()
        lost = 0
        for key in sorted(self.acked):
            shard_id, value = self.acked[key]
            shard = shards[shard_id]
            # Every crash schedules its promotion and the loop drains its
            # heap, so no shard ends the run down.
            assert not shard.down, f"shard {shard_id} ended the run down"
            if shard.engine.tree.get(key) != value:
                lost += 1
        breaker_log: List[str] = []
        for failover, shard_result in zip(self.failovers, result.shards):
            if sanitize.env_enabled():
                failover.breaker.check_invariants()
            shard_result.crashed = failover.crashed
            shard_result.promoted = failover.promoted
            shard_result.failover_us = failover.failover_us
            shard_result.wal_replayed = failover.wal_replayed
            breaker_log.extend(
                f"{time_us:.3f} shard{shard_result.shard_id} {src}->{dst} {reason}"
                for time_us, src, dst, reason in failover.breaker.transitions
            )
        result.breaker_log = sorted(breaker_log)
        result.degrade_log = [
            f"{time_us:.3f} L{src}->L{dst} pressure={pressure:.4f}"
            for time_us, src, dst, pressure in self.ladder.transitions
        ]
        result.crashes = sum(f.crashed for f in self.failovers)
        result.promotions = sum(f.promoted for f in self.failovers)
        result.hedges = self.hedges
        result.hedge_wins = self.hedge_wins
        result.lost_acked_writes = lost
        result.acked_writes_checked = len(self.acked)

    @staticmethod
    def fingerprint_fragment(result: "ServeResult") -> List[str]:
        """This model's share of the fleet fingerprint.

        Folded whenever the config is ``resilience_active``.  A
        deadline-only run has no failure model but still sheds on
        expiry, so it folds the same fields with every failure at zero.
        """
        if not result.config.resilience_active:
            return []
        shed = result.shed_by_reason
        return (
            [f"{reason}={shed[reason]}" for reason in sorted(shed)]
            + result.breaker_log
            + result.degrade_log
            + [
                f"{result.crashes}:{result.promotions}:{result.hedges}:"
                f"{result.hedge_wins}:{result.scans_partial}:"
                f"{result.lost_acked_writes}"
            ]
            + [
                f"{int(s.crashed)}:{int(s.promoted)}:"
                f"{s.failover_us:.3f}:{s.wal_replayed}"
                for s in result.shards
            ]
        )

    @staticmethod
    def report_lines(result: "ServeResult") -> List[str]:
        """This model's report section (same condition as the fingerprint)."""
        if not result.config.resilience_active:
            return []
        lines = [
            f"resilience: crashes={result.crashes} "
            f"promotions={result.promotions} hedges={result.hedges} "
            f"hedge_wins={result.hedge_wins} "
            f"scans_partial={result.scans_partial} "
            f"lost_acked_writes={result.lost_acked_writes}/"
            f"{result.acked_writes_checked}"
        ]
        shed = result.shed_by_reason
        if shed:
            lines.append(
                "shed by reason: "
                + " ".join(f"{reason}={shed[reason]}" for reason in sorted(shed))
            )
        lines.extend(f"breaker: {line}" for line in result.breaker_log)
        lines.extend(f"degrade: {line}" for line in result.degrade_log)
        return lines
