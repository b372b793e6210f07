"""Benchmark harness: strategy factory, run loop, cost model, reports.

* :mod:`repro.bench.simclock` — deterministic simulated-time cost model
  (disk reads dominate, as on the paper's NVMe testbed with direct I/O).
* :mod:`repro.bench.strategies` — builds each of the paper's evaluated
  cache schemes over a shared LSM tree.
* :mod:`repro.bench.harness` — drives workloads, measures estimated hit
  rate / SST reads / simulated QPS, and seeds databases.
* :mod:`repro.bench.report` — ascii tables and rankings (Table 4 style).
"""

from repro.bench.harness import RunResult, run_workload, seed_database
from repro.bench.simclock import CostModel
from repro.bench.strategies import STRATEGIES, build_engine

__all__ = [
    "RunResult",
    "run_workload",
    "seed_database",
    "CostModel",
    "STRATEGIES",
    "build_engine",
]
