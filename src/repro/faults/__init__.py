"""Deterministic fault injection and chaos testing for the LSM + cache stack.

* :mod:`repro.faults.injector` — a seedable :class:`FaultInjector` that
  hooks into the simulated disk's read path and the WAL's append path to
  produce transient read errors, permanent block corruption, and torn
  log tails, plus controller stats blackouts.
* :mod:`repro.faults.retry` — the bounded :class:`RetryPolicy`
  every retry loop must use.
* :mod:`repro.faults.fleet` — seeded fleet-level fault plans that crash
  whole shards mid-run for the serving simulator's failover path.
* :mod:`repro.faults.chaos` — the chaos harness: run the same seeded
  workload against a fault-free and a fault-injected engine and verify
  the results are byte-identical while faults are absorbed.

``chaos`` is re-exported lazily: it pulls in the bench harness (which
imports :mod:`repro.lsm.tree`), while the tree itself imports
:class:`RetryPolicy` from this package — eager re-export would cycle.
"""

from typing import Any

from repro.faults.fleet import FleetFaultConfig, FleetFaultPlan, ShardCrash
from repro.faults.injector import FaultConfig, FaultInjector, FaultStats
from repro.faults.retry import RetryPolicy

__all__ = [
    "ChaosReport",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "FleetFaultConfig",
    "FleetFaultPlan",
    "RetryPolicy",
    "ShardCrash",
    "run_chaos",
]


def __getattr__(name: str) -> Any:
    if name in ("ChaosReport", "run_chaos"):
        from repro.faults import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
