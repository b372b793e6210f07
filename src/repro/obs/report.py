"""Render a human-readable run summary from exported obs artifacts.

``repro report <obs-dir>`` reads the JSONL files an
:class:`~repro.obs.recorder.ObsRecorder` exported and prints:

* a per-window time series (ops, block/range hit rate, range split,
  reward, degraded flag) — the run's internal trajectory;
* lifetime counter totals and histogram summaries;
* the top trace-event kinds, with drop accounting;
* an audit summary (decisions, degraded windows, reward trend).

Long runs are subsampled to a bounded number of rows (first, last, and
evenly spaced between); the header always states how many windows the
table covers so truncation is visible.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.bench.report import format_table
from repro.errors import ObsError
from repro.obs import names as N
from repro.obs.recorder import AUDIT_FILE, EVENTS_FILE, METRICS_FILE


def _read_jsonl(path: str) -> List[Dict[str, Any]]:
    objs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                objs.append(json.loads(line))
    return objs


def _pick_rows(count: int, limit: int) -> List[int]:
    """Indices to display: all when short, else evenly spaced incl. ends."""
    if count <= limit:
        return list(range(count))
    step = (count - 1) / (limit - 1)
    picked = {round(i * step) for i in range(limit)}
    return sorted(picked)


def _hit_rate(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def window_series_table(
    windows: List[Dict[str, Any]], max_rows: int = 24
) -> str:
    """The per-window trajectory table from metrics.jsonl window lines."""
    if not windows:
        return "(no sealed windows)"
    rows = []
    for i in _pick_rows(len(windows), max_rows):
        w = windows[i]
        counters = w.get("counters", {})
        gauges = w.get("gauges", {})
        points = counters.get(N.WINDOW_POINTS, 0)
        scans = counters.get(N.WINDOW_SCANS, 0)
        block_hits = counters.get(N.BLOCK_HITS, 0)
        block_misses = counters.get(N.BLOCK_MISSES, 0)
        rows.append(
            [
                str(w.get("index", i)),
                f"{counters.get(N.WINDOW_OPS, 0):,}",
                f"{_hit_rate(counters.get(N.RANGE_HITS, 0), points + scans):.3f}",
                f"{_hit_rate(block_hits, block_hits + block_misses):.3f}",
                f"{counters.get(N.WINDOW_IO_MISS, 0):,}",
                f"{gauges.get(N.G_RANGE_RATIO, 0.0):.3f}",
                f"{gauges.get(N.G_REWARD, 0.0):+.4f}",
                f"{gauges.get(N.G_ACTOR_LR, 0.0):.2e}",
            ]
        )
    header = [
        "window", "ops", "range hit", "block hit", "io miss",
        "split", "reward", "actor lr",
    ]
    title = f"== per-window trajectory ({min(len(windows), max_rows)} of {len(windows)} windows) =="
    return title + "\n" + format_table(header, rows)


def totals_table(totals: Dict[str, Any]) -> str:
    """Lifetime counters + histogram summaries from the totals line."""
    lines = []
    counters = totals.get("counters", {})
    if counters:
        rows = [[name, f"{value:,}"] for name, value in sorted(counters.items())]
        lines.append("== lifetime counters ==\n" + format_table(["counter", "total"], rows))
    histograms = totals.get("histograms", {})
    if histograms:
        rows = []
        for name, hist in sorted(histograms.items()):
            count = hist.get("count", 0)
            mean = hist.get("total", 0.0) / count if count else 0.0
            rows.append([name, f"{count:,}", f"{mean:,.1f}", f"{hist.get('max', 0.0):,.1f}"])
        lines.append(
            "== histograms ==\n" + format_table(["histogram", "count", "mean", "max"], rows)
        )
    return "\n\n".join(lines)


#: Event kinds :func:`events_table` lists, most frequent first.
TOP_EVENTS = 12


def events_table(objs: List[Dict[str, Any]]) -> str:
    """Top event kinds (count + last timestamp) from events.jsonl."""
    meta = objs[0] if objs else {}
    counts: Dict[str, int] = {}
    last_ts: Dict[str, float] = {}
    for obj in objs[1:]:
        kind = obj.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
        last_ts[kind] = obj.get("ts_us", 0.0)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_EVENTS]
    rows = [
        [kind, f"{count:,}", f"{last_ts[kind]:,.0f}"] for kind, count in ranked
    ]
    dropped = meta.get("dropped", 0)
    note = (
        f" (ring buffer dropped {dropped:,} of {meta.get('recorded', 0):,} events)"
        if dropped
        else ""
    )
    body = format_table(["event kind", "count", "last ts_us"], rows) if rows else "(no events)"
    return f"== top events{note} ==\n" + body


def audit_summary(objs: List[Dict[str, Any]]) -> str:
    """Decision counts + reward trend from audit.jsonl."""
    decisions = [o for o in objs if o.get("type") == "decision"]
    if not decisions:
        return "== audit ==\n(no decisions recorded)"
    degraded = sum(1 for d in decisions if d.get("degraded"))
    rewards = [float(d.get("reward", 0.0)) for d in decisions]
    n = len(rewards)
    head = sum(rewards[: max(1, n // 4)]) / max(1, n // 4)
    tail = sum(rewards[-max(1, n // 4):]) / max(1, n // 4)
    first, last = decisions[0]["applied"], decisions[-1]["applied"]
    return (
        "== audit ==\n"
        f"decisions: {n}  degraded windows: {degraded}\n"
        f"reward: first-quartile mean {head:+.4f} -> last-quartile mean {tail:+.4f}\n"
        f"split: {first['range_ratio']:.3f} -> {last['range_ratio']:.3f}   "
        f"threshold: {first['point_threshold']:.4f} -> {last['point_threshold']:.4f}   "
        f"a: {first['scan_a']:.1f} -> {last['scan_a']:.1f}   "
        f"b: {first['scan_b']:.3f} -> {last['scan_b']:.3f}"
    )


def render_report(directory: str, max_rows: int = 24) -> str:
    """Full report text for one exported obs directory."""
    metrics_path = os.path.join(directory, METRICS_FILE)
    if not os.path.exists(metrics_path):
        raise ObsError(f"{directory}: no {METRICS_FILE}; not an obs export directory")
    metrics = _read_jsonl(metrics_path)
    windows = [o for o in metrics if o.get("type") == "window"]
    totals: Optional[Dict[str, Any]] = next(
        (o for o in metrics if o.get("type") == "totals"), None
    )
    sections = [window_series_table(windows, max_rows=max_rows)]
    if totals:
        section = totals_table(totals)
        if section:
            sections.append(section)
    events_path = os.path.join(directory, EVENTS_FILE)
    if os.path.exists(events_path):
        sections.append(events_table(_read_jsonl(events_path)))
    audit_path = os.path.join(directory, AUDIT_FILE)
    if os.path.exists(audit_path):
        sections.append(audit_summary(_read_jsonl(audit_path)))
    return "\n\n".join(sections)


def list_metrics() -> str:
    """One line per registered metric (``repro report --list-metrics``)."""
    rows = [
        [spec.name, spec.kind, spec.description]
        for spec in sorted(N.METRICS.values(), key=lambda s: (s.kind, s.name))
    ]
    return format_table(["metric", "kind", "description"], rows)
