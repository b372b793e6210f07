"""Recorder facade: the one object instrumentation sites talk to.

Two implementations share an interface:

* :class:`NullRecorder` — the default on every engine.  ``enabled`` is
  ``False`` and every method is a no-op, so instrumented code guards
  with ``if recorder.enabled:`` and pays a single attribute read on the
  disabled path.  This is what keeps the determinism golden digest and
  the benchmark's host numbers untouched when observability is off.
* :class:`ObsRecorder` — owns a :class:`~repro.obs.metrics.MetricsRegistry`,
  an :class:`~repro.obs.trace.EventTrace`, and a
  :class:`~repro.obs.audit.DecisionAudit`, and carries the sim-clock
  timestamp (``now_us``) that every recording is stamped with.  The
  clock only moves via :meth:`ObsRecorder.advance_to` — the engine
  advances it from its obs sim clock at window boundaries, the serving
  simulator from the event loop's virtual time — so exports are
  deterministic and wall-time never leaks in (lint rule SIM001).

One recorder instruments one engine (one shard).  Fleet-wide views are
built by merging exported registries
(:func:`repro.obs.metrics.merge_window_snapshots`), never by sharing a
recorder across shards.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Union

from repro.obs.audit import DecisionAudit
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import EventTrace

#: Exported artifact filenames inside an obs directory.
METRICS_FILE = "metrics.jsonl"
EVENTS_FILE = "events.jsonl"
AUDIT_FILE = "audit.jsonl"
MANIFEST_FILE = "manifest.json"


class NullRecorder:
    """Disabled recorder: every operation is a cheap no-op."""

    __slots__ = ()
    enabled = False

    def advance_to(self, ts_us: float) -> None:
        """No-op."""

    def inc(self, name: str, amount: int = 1) -> None:
        """No-op."""

    def set_gauge(self, name: str, value: float) -> None:
        """No-op."""

    def observe(self, name: str, value: float) -> None:
        """No-op."""

    def event(self, kind: str, **fields: object) -> None:
        """No-op."""

    def end_window(self, index: int) -> None:
        """No-op."""


#: Shared disabled recorder; stateless, so one instance serves everyone.
NULL_RECORDER = NullRecorder()


#: Events the recorder's ring buffer keeps before it drops the oldest.
TRACE_CAPACITY = 4096


class ObsRecorder:
    """Live recorder: registry + trace + audit on one sim-clock timeline."""

    __slots__ = ("metrics", "trace", "audit", "now_us")

    enabled = True

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.trace = EventTrace(TRACE_CAPACITY)
        self.audit = DecisionAudit()
        self.now_us = 0.0

    def advance_to(self, ts_us: float) -> None:
        """Move the recorder's clock forward (monotone; never backward)."""
        if ts_us > self.now_us:
            self.now_us = ts_us

    def inc(self, name: str, amount: int = 1) -> None:
        """Add to a registered counter."""
        self.metrics.inc(name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a registered gauge."""
        self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        """Fold a sample into a registered histogram."""
        self.metrics.observe(name, value)

    def event(self, kind: str, **fields: object) -> None:
        """Record a trace event at the current sim time."""
        self.trace.record(self.now_us, kind, fields)

    def end_window(self, index: int) -> None:
        """Seal the metric window for ``index`` at the current sim time."""
        self.metrics.snapshot_window(index, self.now_us)

    def export(self, directory: str) -> Dict[str, str]:
        """Write all artifacts into ``directory``; returns name -> path.

        The manifest ties the three JSONL files together and records
        the final sim time, so a report consumer can sanity-check it is
        looking at one coherent run.
        """
        os.makedirs(directory, exist_ok=True)
        paths = {
            "metrics": os.path.join(directory, METRICS_FILE),
            "events": os.path.join(directory, EVENTS_FILE),
        }
        self.metrics.export_jsonl(paths["metrics"])
        self.trace.export_jsonl(paths["events"])
        if self.audit.header is not None:
            paths["audit"] = os.path.join(directory, AUDIT_FILE)
            self.audit.export_jsonl(paths["audit"])
        manifest = {
            "version": 1,
            "final_ts_us": self.now_us,
            "windows": len(self.metrics.windows),
            "events_recorded": self.trace.next_seq,
            "events_dropped": self.trace.dropped_total,
            "decisions": len(self.audit.records),
            "files": sorted(os.path.basename(p) for p in paths.values()),
        }
        manifest_path = os.path.join(directory, MANIFEST_FILE)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths["manifest"] = manifest_path
        return paths


#: Annotation for instrumented components: either implementation fits.
Recorder = Union[NullRecorder, ObsRecorder]
