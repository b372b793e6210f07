"""Registered metric-name and event-kind constants (the obs vocabulary).

Every instrumentation site in the simulator records against a constant
defined here — never an inline string (lint rule OBS001 enforces this).
Central registration buys three things:

* typos become import errors instead of silently forked time series;
* the export schema is closed: a consumer can enumerate every metric a
  run may emit (``python -m repro report --list-metrics``);
* each metric carries its kind (counter / gauge / histogram), so the
  registry can reject kind-mismatched recordings at the call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ObsError

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

_KINDS = (COUNTER, GAUGE, HISTOGRAM)


@dataclass(frozen=True)
class MetricSpec:
    """One registered metric: its stable name, kind, and documentation."""

    name: str
    kind: str
    description: str


#: ``name -> spec`` for every metric the subsystem may record.
METRICS: Dict[str, MetricSpec] = {}


def register(name: str, kind: str, description: str) -> str:
    """Register a metric constant; returns the name for assignment.

    Called at import time by this module (and by extensions adding their
    own metrics); duplicate names and unknown kinds are configuration
    errors, caught immediately rather than at first recording.
    """
    if kind not in _KINDS:
        raise ObsError(f"unknown metric kind {kind!r} for {name!r}")
    if name in METRICS:
        raise ObsError(f"metric {name!r} registered twice")
    METRICS[name] = MetricSpec(name, kind, description)
    return name


def spec_of(name: str) -> MetricSpec:
    """Look up a registered metric; raises ObsError on unknown names."""
    try:
        return METRICS[name]
    except KeyError:
        raise ObsError(
            f"unregistered metric name {name!r}; add it to repro.obs.names"
        ) from None


# -- per-window workload counters (exported at each window seal) -------------

WINDOW_OPS = register("window.ops", COUNTER, "operations completed")
WINDOW_POINTS = register("window.points", COUNTER, "point lookups")
WINDOW_SCANS = register("window.scans", COUNTER, "range scans")
WINDOW_WRITES = register("window.writes", COUNTER, "puts")
WINDOW_DELETES = register("window.deletes", COUNTER, "deletes")
WINDOW_IO_MISS = register(
    "window.io_miss", COUNTER, "query-path disk block reads"
)

# -- cache outcome counters ---------------------------------------------------

RANGE_HITS = register("cache.range.hits", COUNTER, "range-cache hits (point+scan)")
RANGE_EVICTIONS = register("cache.range.evictions", COUNTER, "range-cache evictions")
RANGE_INSERTIONS = register("cache.range.insertions", COUNTER, "range-cache insertions")
RANGE_REJECTIONS = register(
    "cache.range.rejections", COUNTER, "range-cache admission rejections"
)
KV_HITS = register("cache.kv.hits", COUNTER, "KV-cache point hits")
BLOCK_HITS = register("cache.block.hits", COUNTER, "block-cache hits")
BLOCK_MISSES = register("cache.block.misses", COUNTER, "block-cache misses")
BLOCK_EVICTIONS = register("cache.block.evictions", COUNTER, "block-cache evictions")
BLOCK_REJECTIONS = register(
    "cache.block.rejections", COUNTER, "block fills refused for exceeding a shard budget"
)

# -- shared second-tier (L2) cache counters -----------------------------------
# Per-shard flow counters are folded by each shard's engine from its
# tier2 client; fleet-level ghost/eviction counters are folded by the
# serving simulator from the shared cache (single writer each way).

L2_HITS = register("cache.l2.hits", COUNTER, "shared-L2 hits on L1 misses")
L2_MISSES = register("cache.l2.misses", COUNTER, "shared-L2 misses (went to disk)")
L2_DEMOTIONS = register(
    "cache.l2.demotions", COUNTER, "L1 victims offered to the shared L2"
)
L2_ADMITS = register(
    "cache.l2.admits", COUNTER, "demoted blocks admitted by the double-hit filter"
)
L2_REJECTS = register(
    "cache.l2.rejects", COUNTER, "demoted blocks rejected by the double-hit filter"
)
L2_GHOST_HITS_RECENCY = register(
    "cache.l2.ghost_hits.recency", COUNTER, "admissions proven by a B1 ghost hit"
)
L2_GHOST_HITS_FREQUENCY = register(
    "cache.l2.ghost_hits.frequency", COUNTER, "admissions proven by a B2 ghost hit"
)
L2_EVICTIONS = register(
    "cache.l2.evictions", COUNTER, "shared-L2 evictions into the ghost lists"
)

# -- admission-control decision counters -------------------------------------

ADMIT_POINT_ACCEPTED = register(
    "admission.point.accepted", COUNTER, "point results admitted to the range cache"
)
ADMIT_POINT_REJECTED = register(
    "admission.point.rejected", COUNTER, "point results rejected by frequency admission"
)
ADMIT_SCAN_FULL = register(
    "admission.scan.full", COUNTER, "scan results fully admitted"
)
ADMIT_SCAN_PARTIAL = register(
    "admission.scan.partial", COUNTER, "scan results partially admitted"
)
ADMIT_SCAN_REJECTED = register(
    "admission.scan.rejected", COUNTER, "scan results rejected outright"
)

# -- LSM structural counters --------------------------------------------------

LSM_FLUSHES = register("lsm.flushes", COUNTER, "MemTable flushes to L0")
LSM_COMPACTIONS = register("lsm.compactions", COUNTER, "compactions run")
LSM_BLOCKS_INVALIDATED = register(
    "lsm.blocks_invalidated", COUNTER, "cached-block identities destroyed by compaction"
)
LSM_WRITE_SLOWDOWNS = register(
    "lsm.write_slowdowns", COUNTER, "L0-pressure write slowdowns"
)

# -- fault / resilience counters ---------------------------------------------

FAULT_TRANSIENT = register(
    "fault.transient", COUNTER, "injected transient read errors"
)
FAULT_CORRUPTION = register(
    "fault.corruption", COUNTER, "injected block corruptions"
)
FAULT_TORN_WAL = register("fault.torn_wal", COUNTER, "injected torn WAL appends")
FAULT_BLACKOUT = register(
    "fault.blackout", COUNTER, "controller stats windows poisoned"
)
FAULT_RETRIES = register("fault.retries", COUNTER, "read attempts retried")
FAULT_REPAIRS = register("fault.repairs", COUNTER, "block corruption repairs")
ENGINE_CRASHES = register(
    "engine.crashes", COUNTER, "simulated crash/recover cycles"
)

# -- fleet-resilience counters (serving layer) -------------------------------

SERVE_SHED_DEADLINE = register(
    "serve.shed.deadline", COUNTER, "sub-requests shed expired on dequeue"
)
SERVE_SHED_BREAKER = register(
    "serve.shed.breaker", COUNTER, "sub-requests refused by an open circuit breaker"
)
SERVE_SHED_DEGRADED = register(
    "serve.shed.degraded", COUNTER, "requests shed by the degradation ladder"
)
SERVE_CRASHES = register(
    "serve.shard.crashes", COUNTER, "shard executors killed by the fleet fault plan"
)
SERVE_PROMOTIONS = register(
    "serve.shard.promotions", COUNTER, "replicas promoted to primary"
)
SERVE_HEDGES = register(
    "serve.hedge.issued", COUNTER, "hedged reads issued to replicas"
)
SERVE_HEDGE_WINS = register(
    "serve.hedge.wins", COUNTER, "requests completed by the hedge first"
)
SERVE_SCANS_PARTIAL = register(
    "serve.scan.partial", COUNTER, "scans completed with explicitly partial results"
)
SERVE_BREAKER_TRANSITIONS = register(
    "serve.breaker.transitions", COUNTER, "circuit-breaker state changes"
)
SERVE_PHASE_TRANSITIONS = register(
    "serve.phase.transitions", COUNTER, "scenario-schedule phase boundaries crossed"
)

# -- controller counters ------------------------------------------------------

CTRL_DECISIONS = register("controller.decisions", COUNTER, "controller windows processed")
CTRL_DEGRADED_WINDOWS = register(
    "controller.degraded_windows", COUNTER, "windows spent pinned to safe defaults"
)

# -- end-of-window gauges -----------------------------------------------------

G_RANGE_OCCUPANCY = register(
    "gauge.range.occupancy", GAUGE, "range-cache used/budget at window end"
)
G_BLOCK_OCCUPANCY = register(
    "gauge.block.occupancy", GAUGE, "block-cache used/budget at window end"
)
G_RANGE_RATIO = register(
    "gauge.split.range_ratio", GAUGE, "range share of the cache budget"
)
G_NUM_LEVELS = register("gauge.lsm.num_levels", GAUGE, "LSM levels in use")
G_LEVEL0_RUNS = register("gauge.lsm.level0_runs", GAUGE, "L0 sorted runs")
G_REWARD = register("gauge.controller.reward", GAUGE, "last window's reward")
G_ACTOR_LR = register(
    "gauge.controller.actor_lr", GAUGE, "adaptive actor learning rate"
)
G_POINT_THRESHOLD = register(
    "gauge.controller.point_threshold", GAUGE, "applied frequency-admission bar"
)
G_SCAN_A = register("gauge.controller.scan_a", GAUGE, "applied partial-admission a")
G_SCAN_B = register("gauge.controller.scan_b", GAUGE, "applied partial-admission b")
G_DEGRADE_LEVEL = register(
    "gauge.serve.degrade_level", GAUGE, "degradation-ladder level in force"
)
G_SCENARIO_PHASE = register(
    "gauge.serve.scenario_phase", GAUGE, "index of the scenario phase in force"
)
G_L2_BUDGET_SHARE = register(
    "gauge.l2.budget_share", GAUGE, "shared-L2 fraction of the fleet cache budget"
)
G_L2_OCCUPANCY = register(
    "gauge.l2.occupancy", GAUGE, "shared-L2 used/budget at the last split decision"
)

# -- histograms (log-bucketed) ------------------------------------------------

H_SCAN_ADMITTED = register(
    "hist.scan.admitted_entries", HISTOGRAM, "entries admitted per scan fill"
)
H_COMPACTION_ENTRIES = register(
    "hist.compaction.entries_in", HISTOGRAM, "entries merged per compaction"
)
H_RETRY_STALL_US = register(
    "hist.fault.retry_stall_us", HISTOGRAM, "per-retry backoff stall (us)"
)
H_WINDOW_IO_MISS = register(
    "hist.window.io_miss", HISTOGRAM, "disk reads per sealed window"
)
H_FAILOVER_US = register(
    "hist.serve.failover_us", HISTOGRAM, "crash-to-promotion recovery time (us)"
)

# -- event kinds (structured trace ring buffer) ------------------------------
# Event kinds are plain constants (no kind registry needed: the schema
# validator accepts exactly this closed set, see repro.obs.schema).

EV_WINDOW = "window"
EV_FLUSH = "flush"
EV_COMPACTION = "compaction"
EV_WRITE_STALL = "write_stall"
EV_CACHE_REJECT = "cache_reject"
EV_CACHE_EVICT = "cache_evict"
EV_BOUNDARY_MOVE = "boundary_move"
EV_ADMISSION_RETUNE = "admission_retune"
EV_FAULT_TRANSIENT = "fault_transient"
EV_FAULT_CORRUPTION = "fault_corruption"
EV_FAULT_TORN_WAL = "fault_torn_wal"
EV_FAULT_BLACKOUT = "fault_blackout"
EV_RETRY = "retry"
EV_REPAIR = "repair"
EV_CRASH_RECOVER = "crash_recover"
EV_DEGRADED_ENTER = "degraded_enter"
EV_DEGRADED_EXIT = "degraded_exit"
EV_DECISION = "decision"
EV_SHARD_CRASH = "shard_crash"
EV_SHARD_PROMOTE = "shard_promote"
EV_BREAKER = "breaker"
EV_HEDGE = "hedge"
EV_DEGRADE = "degrade"
EV_PHASE = "phase_change"
EV_L2_SPLIT = "l2_split"

#: The closed set of event kinds a trace line may carry.
EVENT_KINDS: Tuple[str, ...] = (
    EV_WINDOW,
    EV_FLUSH,
    EV_COMPACTION,
    EV_WRITE_STALL,
    EV_CACHE_REJECT,
    EV_CACHE_EVICT,
    EV_BOUNDARY_MOVE,
    EV_ADMISSION_RETUNE,
    EV_FAULT_TRANSIENT,
    EV_FAULT_CORRUPTION,
    EV_FAULT_TORN_WAL,
    EV_FAULT_BLACKOUT,
    EV_RETRY,
    EV_REPAIR,
    EV_CRASH_RECOVER,
    EV_DEGRADED_ENTER,
    EV_DEGRADED_EXIT,
    EV_DECISION,
    EV_SHARD_CRASH,
    EV_SHARD_PROMOTE,
    EV_BREAKER,
    EV_HEDGE,
    EV_DEGRADE,
    EV_PHASE,
    EV_L2_SPLIT,
)
