"""Deterministic multi-tenant serving layer over the cache + LSM stack.

Event-driven simulation of a sharded key-value service: a shard router
partitions the keyspace across independent engines, open- and
closed-loop client sessions offer load, bounded per-shard queues apply
backpressure and shed excess (with full accounting), a global budget
arbiter re-splits the fleet cache budget from per-shard window exports,
and every request's latency — queue wait plus cost-model service time —
lands in mergeable log-bucketed histograms with per-tenant breakdowns.

The resilience layer (:mod:`repro.serve.resilience`) adds a fleet
failure model on the same deterministic event loop: WAL-shipped passive
replicas with crash failover, per-shard circuit breakers, hedged point
reads, per-op deadlines, and a graceful-degradation ladder.
"""

from repro.serve.arbiter import BudgetArbiter
from repro.serve.events import EventLoop
from repro.serve.queueing import Request, RequestQueue, SubRequest
from repro.serve.resilience import (
    CircuitBreaker,
    DegradationLadder,
    ResilienceConfig,
)
from repro.serve.result import ServeResult, ShardResult, TenantResult
from repro.serve.router import ShardRouter
from repro.serve.session import (
    ClientSession,
    PhaseSlot,
    ScriptedSession,
    TenantConfig,
)
from repro.serve.simulator import ServeConfig, run_serve

__all__ = [
    "BudgetArbiter",
    "CircuitBreaker",
    "ClientSession",
    "DegradationLadder",
    "EventLoop",
    "PhaseSlot",
    "Request",
    "RequestQueue",
    "ResilienceConfig",
    "ScriptedSession",
    "ServeConfig",
    "ServeResult",
    "ShardResult",
    "ShardRouter",
    "SubRequest",
    "TenantConfig",
    "TenantResult",
    "run_serve",
]
