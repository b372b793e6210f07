"""The declared names, and that a run emits every one of them."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run
from trace import HOOKS
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PERF = Path(__file__).resolve().parents[1]


def test_names_and_units_fit_the_grammar():
    names = [m.name for m in metrics.END_TO_END] + list(metrics.PER_LAYER_NAMES)
    names += list(WORKLOADS) + [metrics.HOST_IQR]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [m.unit for m in metrics.END_TO_END] + [u for _, u, _ in metrics.PER_LAYER]:
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_is_the_declaration_of_the_tables(declared):
    # One source of truth: ``run.py declare > BENCHMARK.json`` after any edit
    # to metrics.END_TO_END, metrics.PER_LAYER or workloads.WORKLOADS.
    assert declared == metrics.declaration()
    assert declared["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    sections = declared["end_to_end"] + declared["per_layer"]
    assert len(declared["per_layer"]) <= 128 and len(declared["end_to_end"]) <= 16
    # All eleven end-to-end metrics are declared, in one section or the other.
    assert {m.name for m in metrics.END_TO_END} <= {m["name"] for m in sections}
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    for m in declared["end_to_end"]:
        # Ten seeds never agree better than two runs of one seed.
        assert metrics.E2E_BY_NAME[m["name"]].bound <= m["bound"] <= 0.25


def test_every_declared_name_is_emitted_for_every_workload(declared, quick_report):
    assert sorted(quick_report["workloads"]) == sorted(WORKLOADS)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    for workload, entry in quick_report["workloads"].items():
        values = dict(entry["end_to_end"], **entry["per_layer"])
        for name in names:
            assert name in values, (workload, name)
            if values[name] is None:
                assert entry["null_reasons"][name], (workload, name)
            assert f"{workload:12s} {name:32s} " in quick_report["stdout"]


def test_quick_run_checks_itself(quick_report):
    # per_layer() raised otherwise: traced == untraced fingerprint, host.frac.*
    # sum to 1, sim.cost.* sum to elapsed.  (Too short for every hook to fire;
    # test_a_silent_hook_fails_the_run covers that check.)
    for workload, entry in quick_report["workloads"].items():
        assert entry["correct"], (workload, entry["mismatches"])
        assert entry["per_layer"]["bench.trace_overhead_frac"] is not None
        shares = [v for k, v in entry["per_layer"].items() if k.startswith("sim.cost.")]
        assert abs(sum(shares) - 1.0) < 1e-6
    flat = quick_report["workloads"]["serve_flat"]
    assert flat["end_to_end"]["sim_max_rate_ok"] is not None
    assert [r["rate_ops_s"] for r in flat["rate_ladder"]] == [1600.0, 2400.0, 3200.0, 4000.0]


def test_a_silent_hook_fails_the_run():
    calls = {hook.name: 1 for hook in HOOKS}
    assert run.silent_hooks("point_cold", calls) == []
    calls["BloomFilter.may_contain"] = 0
    assert run.silent_hooks("point_cold", calls) == ["BloomFilter.may_contain"]
    assert run.silent_hooks("serve_flat", calls) == []  # not that workload's to exercise
    timed = {"fingerprint": "f", "failed": 0}
    traced = dict(timed, trace={"dropped": 0, "hook_calls": calls})
    with pytest.raises(run.SelfCheckError, match="BloomFilter.may_contain"):
        run.per_layer("point_cold", traced, [timed], None, smoke=False)


@pytest.mark.parametrize("trace, seconds, section", [(0, 0.6, "end_to_end"), (1, 6, "per_layer")])
def test_driver_form_ends_with_one_contract_line(declared, trace, seconds, section):
    # --trace 1 at the frozen size also runs the hook check on a real child.
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", "point_cold", "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in declared[section]]
    for m in declared[section]:
        value = last["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and isinstance(value["value"], (int, float))
