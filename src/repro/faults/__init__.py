"""Deterministic fault injection and chaos testing for the LSM + cache stack.

* :mod:`repro.faults.injector` — a seedable :class:`FaultInjector` that
  hooks into the simulated disk's read path and the WAL's append path to
  produce transient read errors, permanent block corruption, and torn
  log tails, plus controller stats blackouts.
* :mod:`repro.faults.fleet` — seeded fleet-level fault plans that crash
  whole shards mid-run for the serving simulator's failover path.
* :mod:`repro.faults.chaos` — the chaos harness: run the same seeded
  workload against a fault-free and a fault-injected engine and verify
  the results are byte-identical while faults are absorbed.

Bounded read retries are :class:`~repro.lsm.options.LSMOptions` fields
(``max_read_retries``, ``retry_backoff_us``) that
:meth:`~repro.lsm.tree.LSMTree.fetch_block` reads directly.
"""

from repro.faults.chaos import ChaosReport, run_chaos
from repro.faults.fleet import FleetFaultConfig, FleetFaultPlan, ShardCrash
from repro.faults.injector import FaultConfig, FaultInjector, FaultStats

__all__ = [
    "ChaosReport",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "FleetFaultConfig",
    "FleetFaultPlan",
    "ShardCrash",
    "run_chaos",
]
