"""Workload generation: Zipfian keys, operation mixes, dynamic phases.

* :mod:`repro.workloads.keys` — fixed-width key/value encoding matching
  the paper's 24 B keys and 1000 B (logical) values.
* :mod:`repro.workloads.zipfian` — YCSB-style Zipfian generator with
  optional key scrambling.
* :mod:`repro.workloads.generator` — operation streams from a
  :class:`WorkloadSpec` mix (the paper's four static workloads are
  provided as constructors).
* :mod:`repro.workloads.dynamic` — the Table 3 phase sequence A-F.
* :mod:`repro.workloads.scenarios` — the scenario atlas: seeded,
  composable multi-phase schedules (diurnal waves, flash crowds,
  zipf drift, scan storms, write floods, tenant churn, key-space
  growth) for the serving simulator.
* :mod:`repro.workloads.atlas` — the scenarios × strategies matrix
  runner (imported directly, not re-exported here: it depends on
  :mod:`repro.serve`, which imports this package).
"""

from repro.workloads.generator import (
    Operation,
    WorkloadGenerator,
    WorkloadSpec,
    balanced_workload,
    long_scan_workload,
    point_lookup_workload,
    short_scan_workload,
)
from repro.workloads.dynamic import DYNAMIC_PHASES, dynamic_phase_specs
from repro.workloads.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioParams,
    ScenarioPhase,
    ScenarioSchedule,
    TenantPhase,
    build_scenario,
    describe_scenarios,
    interpolate_specs,
    scenario_names,
)
from repro.workloads.zipfian import ZipfianGenerator

__all__ = [
    "Operation",
    "SCENARIOS",
    "Scenario",
    "ScenarioParams",
    "ScenarioPhase",
    "ScenarioSchedule",
    "TenantPhase",
    "WorkloadGenerator",
    "WorkloadSpec",
    "ZipfianGenerator",
    "build_scenario",
    "describe_scenarios",
    "interpolate_specs",
    "point_lookup_workload",
    "scenario_names",
    "short_scan_workload",
    "balanced_workload",
    "long_scan_workload",
    "DYNAMIC_PHASES",
    "dynamic_phase_specs",
]
