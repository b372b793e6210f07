"""``run.py compare A.json B.json``: is report B worse than report A?

One row per workload and end-to-end metric: the base (A), the ratio
B/A and the bound that was applied.  A metric regresses when B is worse
than A by more than the metric's bound.  A host time that stayed inside
its bound is only *unresolved*, not ok, when either report's own
repeat-to-repeat spread (``bench.host_iqr_frac``) is wider than that
bound.  Two reports of the same code (equal ``code_sha256``) must agree
on every ``sim_*`` value and fingerprint.  Exit status 1 on any
regression or a higher ``failed_frac``, 2 when the reports did not run
the same inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional, Sequence

from metrics import END_TO_END, FAILED_FRAC_SLACK, HOST_IQR, Metric

#: Metrics read off the host's clock, which share its repeat-to-repeat
#: spread.  ``host_peak_rss_mb`` does not: it repeats to a tenth of a percent.
HOST_TIMES = ("setup_s", "host_ops_per_s")


def worsening(metric: Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        if new == 0:
            return 0.0
        return math.inf if (new > 0) == (metric.better == "lower") else -math.inf
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def verdict(metric: Metric, base: Optional[float], new: Optional[float],
            host_iqr: float) -> str:
    if base is None and new is None:
        return "n/a"
    if base is None or new is None:
        return "regressed"  # a metric appeared or vanished: not the same benchmark
    if metric.name == "failed_frac":
        return "regressed" if new > base + FAILED_FRAC_SLACK else "ok"
    worse = worsening(metric, base, new)
    if worse > metric.bound:
        return "regressed"
    if metric.name in HOST_TIMES and host_iqr > metric.bound:
        return "unresolved"
    return "ok"


def compare_reports(a: Dict[str, object], b: Dict[str, object]) -> List[Dict[str, object]]:
    """Rows for every workload; raises unless both reports ran the same inputs."""
    for key in ("seed", "scale"):
        if a[key] != b[key]:
            raise ValueError(f"reports differ in {key} ({a[key]} vs {b[key]}): "
                             "they did not run the same inputs")
    if set(a["workloads"]) != set(b["workloads"]):
        only = sorted(set(a["workloads"]) ^ set(b["workloads"]))
        raise ValueError(f"reports cover different workloads ({only} in one only): "
                         "run both with the same --workload, or with none")
    same_code = a["code_sha256"] == b["code_sha256"]
    rows: List[Dict[str, object]] = []
    for name, base_entry in a["workloads"].items():
        new_entry = b["workloads"][name]
        host_iqr = max(base_entry["per_layer"][HOST_IQR], new_entry["per_layer"][HOST_IQR])
        for metric in END_TO_END:
            base = base_entry["end_to_end"][metric.name]
            new = new_entry["end_to_end"][metric.name]
            result = verdict(metric, base, new, host_iqr)
            if same_code and metric.name.startswith("sim_") and base != new:
                result = "regressed"  # same code must simulate the same run
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "base": base, "new": new,
                "ratio": new / base if base and new is not None else None,
                "bound": FAILED_FRAC_SLACK if metric.name == "failed_frac" else metric.bound,
                "verdict": result,
            })
        if same_code and base_entry["sim_fingerprint"] != new_entry["sim_fingerprint"]:
            rows.append({
                "workload": name, "metric": "sim_fingerprint", "unit": "sha256",
                "base": base_entry["sim_fingerprint"][:12],
                "new": new_entry["sim_fingerprint"][:12],
                "ratio": None, "bound": 0.0, "verdict": "regressed",
            })
    return rows


def _cell(value: object) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="A.json")
    parser.add_argument("new", metavar="B.json")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    try:
        rows = compare_reports(base, new)
    except ValueError as exc:
        print(f"run.py compare: {exc}", file=sys.stderr)
        return 2
    header = ("workload", "metric", "unit", "base", "new", "ratio", "bound", "verdict")
    table = [header] + [tuple(_cell(row[h]) for h in header) for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for line in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    counts = {v: sum(r["verdict"] == v for r in rows) for v in ("regressed", "unresolved")}
    same = "same code" if base["code_sha256"] == new["code_sha256"] else "different code"
    print(f"{counts['regressed']} regressed, {counts['unresolved']} unresolved, "
          f"{len(rows)} rows ({same})")
    return 1 if counts["regressed"] else 0
