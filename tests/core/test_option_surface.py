"""Every settable config field names who sets it.

A class with no settable field (``CostModel``) has an empty row, so a
price made settable again fails here.

A field stays on a config class only if something sets it: a caller in
``src/``, ``benchmarks/`` or ``examples/`` (a CLI flag counts through
its handler in ``cli.py``), or a pinned test.  A field kept for another
reason states that reason.  Everything else is a module constant next
to the code that reads it.

Each class's init fields must equal its table below, so a new knob
fails here until the same diff names the file that sets it or the
reason it stays.
"""

from __future__ import annotations

import ast
import functools
import inspect
from pathlib import Path
from typing import Dict, FrozenSet, Union

import pytest

from repro.bench.simclock import CostModel
from repro.core.config import AdCacheConfig
from repro.faults.fleet import FleetFaultConfig
from repro.faults.injector import FaultConfig
from repro.lsm.options import LSMOptions
from repro.serve.resilience import ResilienceConfig
from repro.serve.session import TenantConfig
from repro.serve.simulator import ServeConfig
from repro.workloads.atlas import AtlasConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.scenarios import ScenarioParams

ROOT = Path(__file__).resolve().parents[2]


class Caller(str):
    """A file outside ``tests/`` that sets the field."""


class Pinned(str):
    """A test that pins the field at a non-default value."""


class Kept(str):
    """Why a field nobody sets stays settable."""


Setter = Union[Caller, Pinned, Kept]

CLI = Caller("src/repro/cli.py")
STRATEGIES = Caller("src/repro/bench/strategies.py")
BENCH_COMMON = Caller("benchmarks/common.py")
LSM_OUT_OF_SCOPE = Kept(
    "LSMOptions, out of scope: the geometry, the bloom seed and the retry "
    "and repair budgets; the tree's own tests vary them to build states"
)
FLEET_PINS = Pinned("tests/integration/test_determinism.py")
CHAOS = Caller("src/repro/faults/chaos.py")
ATLAS = Caller("src/repro/workloads/atlas.py")
SCENARIOS = Caller("src/repro/workloads/scenarios.py")
SIMULATOR = Caller("src/repro/serve/simulator.py")

SURFACE: Dict[type, Dict[str, Setter]] = {
    AdCacheConfig: {
        "total_cache_bytes": STRATEGIES,
        "initial_range_ratio": Caller("examples/admission_control.py"),
        "window_size": BENCH_COMMON,
        "alpha": Caller("benchmarks/test_fig10_training_params.py"),
        "hidden_dim": BENCH_COMMON,
        "enable_partitioning": STRATEGIES,
        "enable_admission": STRATEGIES,
        "online_learning": STRATEGIES,
        "reward_mode": Kept(
            "paper section 3.5: the delta reward against the level reward; "
            "choosing one needs a benchmark that measures both"
        ),
        "num_shards": Caller("benchmarks/test_fig11a_overhead.py"),
        "seed": STRATEGIES,
    },
    ResilienceConfig: {
        "fleet_faults": CLI,
        "op_timeout_us": CLI,
        "hedge_quantile": CLI,
        "hedge_floor_us": FLEET_PINS,
        "hedge_min_samples": FLEET_PINS,
    },
    LSMOptions: {
        "entries_per_block": LSM_OUT_OF_SCOPE,
        "entries_per_sstable": BENCH_COMMON,
        "memtable_entries": BENCH_COMMON,
        "level0_file_num_compaction_trigger": LSM_OUT_OF_SCOPE,
        "level0_slowdown_writes_trigger": LSM_OUT_OF_SCOPE,
        "level0_stop_writes_trigger": LSM_OUT_OF_SCOPE,
        "max_levels": LSM_OUT_OF_SCOPE,
        "auto_compact": LSM_OUT_OF_SCOPE,
        "max_read_retries": LSM_OUT_OF_SCOPE,
        "retry_backoff_us": LSM_OUT_OF_SCOPE,
        "max_corruption_repairs": LSM_OUT_OF_SCOPE,
        "seed": LSM_OUT_OF_SCOPE,
    },
    FleetFaultConfig: {
        "crashes": CLI,
        "earliest_us": CLI,
        "latest_us": CLI,
        "seed": CLI,
    },
    ServeConfig: {
        "num_clients": CLI,
        "num_shards": CLI,
        "total_ops": CLI,
        "seed": CLI,
        "strategy": CLI,
        "workload": CLI,
        "num_keys": CLI,
        "cache_bytes": CLI,
        "l2_budget_bytes": CLI,
        "partition": CLI,
        "queue_depth": CLI,
        "batch_size": Caller("benchmarks/perf/workloads.py"),
        "arrival_rate_ops_s": CLI,
        "closed_clients": CLI,
        "think_time_us": CLI,
        "rebalance_every": CLI,
        "window_size": CLI,
        "memtable_entries": CLI,
        "entries_per_sstable": CLI,
        "keep_trace": CLI,
        "op_deadline_us": CLI,
        "resilience": CLI,
        "obs": CLI,
        "schedule": ATLAS,
    },
    FaultConfig: {
        "transient_read_rate": CHAOS,
        "corruption_rate": CHAOS,
        "torn_wal_rate": CHAOS,
        "blackout_start": CHAOS,
        "seed": CHAOS,
    },
    AtlasConfig: {
        "scenarios": CLI,
        "strategies": CLI,
        "seed": CLI,
        "num_keys": CLI,
        "tenants": CLI,
        "phase_ops": CLI,
        "arrival_rate_ops_s": CLI,
        "num_shards": CLI,
        "cache_kb": CLI,
        "l2_fraction": CLI,
        "window_size": CLI,
        "rebalance_every": Caller("benchmarks/test_atlas_matrix.py"),
        "double_run": CLI,
    },
    CostModel: {},
    ScenarioParams: {
        "num_keys": ATLAS,
        "tenants": ATLAS,
        "phase_ops": ATLAS,
        "arrival_rate_ops_s": ATLAS,
        "seed": ATLAS,
    },
    TenantConfig: {
        "name": SIMULATOR,
        "ops": SIMULATOR,
        "mode": SIMULATOR,
        "arrival_rate_ops_s": SIMULATOR,
        "think_time_us": SIMULATOR,
    },
    WorkloadSpec: {
        "num_keys": SCENARIOS,
        "get_ratio": SCENARIOS,
        "short_scan_ratio": SCENARIOS,
        "long_scan_ratio": SCENARIOS,
        "write_ratio": SCENARIOS,
        "delete_ratio": SCENARIOS,
        "short_scan_length": SCENARIOS,
        "long_scan_length": SCENARIOS,
        "point_skew": SCENARIOS,
        "scan_skew": SCENARIOS,
        "scrambled": SCENARIOS,
        "hot_offset": SCENARIOS,
        "name": SCENARIOS,
    },
}


@functools.lru_cache(maxsize=None)
def names_set_in(path: str) -> FrozenSet[str]:
    """Names ``path`` passes as keyword arguments or string keys."""
    tree = ast.parse((ROOT / path).read_text(), filename=path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
        elif isinstance(node, ast.Subscript):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                names.add(key.value)
    return frozenset(names)


@pytest.mark.parametrize("cls", list(SURFACE), ids=lambda cls: cls.__name__)
def test_init_fields_equal_the_table(cls):
    settable = set(inspect.signature(cls).parameters)
    assert settable == set(SURFACE[cls])


SET_BY_FILE = [
    pytest.param(name, setter, id=f"{cls.__name__}.{name}")
    for cls, table in SURFACE.items()
    for name, setter in table.items()
    if not isinstance(setter, Kept)
]


@pytest.mark.parametrize("name,setter", SET_BY_FILE)
def test_named_file_sets_the_field(name, setter):
    if isinstance(setter, Caller):
        assert not setter.startswith("tests/"), "a caller lives outside tests/"
    else:
        assert setter.startswith("tests/"), "a pin is a test"
    assert name in names_set_in(setter), f"{setter} never sets {name}"
