"""``compare``: bounds, unresolved host metrics, same-code strictness."""

from __future__ import annotations

import copy

import pytest

import compare
import metrics


def report(code: str = "a" * 64, **overrides) -> dict:
    e2e = {m.name: 1.0 for m in metrics.END_TO_END}
    e2e.update({"failed_frac": 0.0, "sim_write_amp": None, **overrides})
    entry = {"end_to_end": e2e, "per_layer": {metrics.HOST_IQR: 0.03}, "sim_fingerprint": "f" * 64}
    return {"seed": 0, "scale": 1.0, "code_sha256": code, "workloads": {"point_cold": entry}}


def verdicts(a: dict, b: dict) -> dict:
    return {r["metric"]: r["verdict"] for r in compare.compare_reports(a, b)}


def test_within_bounds_is_ok_and_null_is_na():
    got = verdicts(report(), report(host_ops_per_s=0.95, setup_s=1.2))
    assert got["host_ops_per_s"] == got["setup_s"] == "ok"
    assert got["sim_write_amp"] == "n/a"


def test_worse_than_the_bound_regresses_in_the_metric_s_direction():
    got = verdicts(report(), report("b" * 64, host_ops_per_s=0.85, sim_io_per_op=1.05,
                                    sim_max_rate_ok=0.99))
    assert got["host_ops_per_s"] == got["sim_io_per_op"] == got["sim_max_rate_ok"] == "regressed"
    better = verdicts(report(), report("b" * 64, host_ops_per_s=1.5, sim_io_per_op=0.5))
    assert better["host_ops_per_s"] == better["sim_io_per_op"] == "ok"


def test_wide_host_spread_is_unresolved_not_ok():
    noisy = report(host_ops_per_s=0.97)
    noisy["workloads"]["point_cold"]["per_layer"][metrics.HOST_IQR] = 0.12
    got = verdicts(report(), noisy)
    assert got["host_ops_per_s"] == "unresolved"
    assert got["setup_s"] == "ok"  # its bound, 25 %, is wider than the spread
    assert got["host_peak_rss_mb"] == got["sim_qps"] == "ok"  # not read off the clock
    noisy["workloads"]["point_cold"]["per_layer"][metrics.HOST_IQR] = 0.30
    assert verdicts(report(), noisy)["setup_s"] == "unresolved"
    assert verdicts(report(), dict(noisy, code_sha256="b" * 64))["host_ops_per_s"] == "unresolved"


def test_failed_frac_has_an_absolute_slack():
    assert verdicts(report(), report(failed_frac=0.001))["failed_frac"] == "ok"
    assert verdicts(report(), report(failed_frac=0.002))["failed_frac"] == "regressed"


def test_same_code_requires_identical_sim_values_and_fingerprints():
    assert verdicts(report(), report("b" * 64, sim_qps=0.999))["sim_qps"] == "ok"
    assert verdicts(report(), report(sim_qps=0.999))["sim_qps"] == "regressed"
    other = copy.deepcopy(report())
    other["workloads"]["point_cold"]["sim_fingerprint"] = "0" * 64
    assert verdicts(report(), other)["sim_fingerprint"] == "regressed"
    other["code_sha256"] = "b" * 64
    assert "sim_fingerprint" not in verdicts(report(), other)


def test_reports_of_different_inputs_do_not_compare():
    renamed = report()
    renamed["workloads"]["point_hot"] = renamed["workloads"].pop("point_cold")
    with pytest.raises(ValueError, match="different workloads"):
        compare.compare_reports(report(), renamed)
    extra = report()
    extra["workloads"]["scan_cold"] = extra["workloads"]["point_cold"]
    with pytest.raises(ValueError, match="different workloads"):
        compare.compare_reports(report(), extra)
    with pytest.raises(ValueError, match="seed"):
        compare.compare_reports(report(), dict(report(), seed=1))
