"""What one serving run produced: per-tenant, per-shard and fleet results.

:class:`ServeResult` folds the simulation kernel's outputs into one
fingerprint and one text report.  The optional stages — the failure
model (:class:`~repro.serve.resilience.FailureModel`) and the shared L2
(:class:`~repro.serve.tier2.Tier2Coordinator`) — fill their own fields
and supply their own fingerprint fragment and report lines, each empty
when its feature is off, so a run with a stage off hashes and reports
exactly as if the stage did not exist.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.bench.report import format_table, latency_table
from repro.core.stats import WindowStats
from repro.errors import ObsError
from repro.obs.metrics import Histogram, WindowSnapshot, export_fleet_metrics
from repro.obs.recorder import EVENTS_FILE, MANIFEST_FILE, METRICS_FILE, ObsRecorder
from repro.obs.trace import export_fleet_events
from repro.serve.resilience import FailureModel
from repro.serve.tier2 import Tier2Coordinator

if TYPE_CHECKING:  # the simulator imports this module
    from repro.serve.simulator import ServeConfig


@dataclass
class TenantResult:
    """Per-tenant outcome: accounting plus the latency distribution."""

    name: str
    mode: str
    issued: int
    completed: int
    rejected: int
    latency: Histogram


@dataclass
class ShardResult:
    """Per-shard outcome: work served, I/O paid, budget held."""

    shard_id: int
    keys_owned: int
    subrequests_served: int
    disk_reads: int
    budget_bytes: int
    peak_queue_depth: int
    rejected_at: int
    busy_us: float
    #: Failure-model extras (zero / False when it is off).
    crashed: bool = False
    promoted: bool = False
    failover_us: float = 0.0
    wal_replayed: int = 0


@dataclass
class ServeResult:
    """Everything one serving run produced."""

    config: "ServeConfig"
    duration_us: float
    issued: int
    completed: int
    rejected: int
    throughput_qps: float
    latency: Histogram
    queue_wait: Histogram
    tenants: List[TenantResult]
    shards: List[ShardResult]
    fleet_window: WindowStats
    rebalances: int
    evictions_forced: int
    trace_digest: str
    trace: List[str] = field(default_factory=list)
    #: Requests shed per distinct reason (queue_full, deadline, ...).
    shed_by_reason: Dict[str, int] = field(default_factory=dict)
    scans_partial: int = 0
    #: Failure-model fields (zero / empty when it is off).
    #: Circuit-breaker transition audit, one rendered line per change.
    breaker_log: List[str] = field(default_factory=list)
    #: Degradation-ladder transition audit.
    degrade_log: List[str] = field(default_factory=list)
    crashes: int = 0
    promotions: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    #: Acknowledged writes whose durable value could not be read back.
    lost_acked_writes: int = 0
    acked_writes_checked: int = 0
    #: Per-shard recorders (``config.obs`` runs only; empty otherwise).
    obs_recorders: List[ObsRecorder] = field(default_factory=list, repr=False)
    #: Fleet-wide reduction of the per-shard metric windows.
    obs_fleet_windows: List[WindowSnapshot] = field(default_factory=list, repr=False)
    #: Shared-tier summary (tiered runs only; all zeros on flat runs).
    l2_probes: int = 0
    l2_hits: int = 0
    l2_demotions: int = 0
    l2_admits: int = 0
    l2_rejects: int = 0
    l2_ghost_hits: int = 0
    l2_evictions: int = 0
    l2_budget_bytes: int = 0
    l2_used_bytes: int = 0
    l2_share_final: float = 0.0
    #: Rendered L1/L2 boundary moves, one line per arbitration round.
    l2_log: List[str] = field(default_factory=list)

    def export_obs(self, directory: str) -> Dict[str, str]:
        """Write obs artifacts: one subdirectory per shard + a fleet view.

        ``shard<N>/`` each hold a complete single-engine export
        (metrics, events, audit when the strategy has a controller);
        the top level is itself a complete export — ``metrics.jsonl``
        is the fleet-wide merge-windows-style reduction,
        ``events.jsonl`` the shard-tagged interleave of every trace —
        so ``repro report`` (and its ``--validate``) read the fleet
        directory exactly like a single-shard one.
        """
        if not self.obs_recorders:
            raise ObsError(
                "run recorded no observability; set ServeConfig.obs=True"
            )
        os.makedirs(directory, exist_ok=True)
        paths: Dict[str, str] = {}
        for shard_id, recorder in enumerate(self.obs_recorders):
            sub = os.path.join(directory, f"shard{shard_id}")
            recorder.export(sub)
            paths[f"shard{shard_id}"] = sub
        fleet_path = os.path.join(directory, METRICS_FILE)
        export_fleet_metrics([r.metrics for r in self.obs_recorders], fleet_path)
        paths["fleet"] = fleet_path
        events_path = os.path.join(directory, EVENTS_FILE)
        export_fleet_events([r.trace for r in self.obs_recorders], events_path)
        paths["fleet_events"] = events_path
        manifest = {
            "version": 1,
            "fleet": True,
            "shards": len(self.obs_recorders),
            "final_ts_us": max(r.now_us for r in self.obs_recorders),
            "windows": len(self.obs_fleet_windows),
            "events_recorded": sum(r.trace.next_seq for r in self.obs_recorders),
            "events_dropped": sum(
                r.trace.dropped_total for r in self.obs_recorders
            ),
            "files": sorted([EVENTS_FILE, METRICS_FILE]),
        }
        manifest_path = os.path.join(directory, MANIFEST_FILE)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths["manifest"] = manifest_path
        return paths

    def fingerprint(self) -> str:
        """One hash covering the trace, histograms, and counters.

        The optional stages append their own fragments, empty when the
        stage is off, so a configuration without them keeps its golden
        hash.
        """
        h = hashlib.sha256()
        h.update(self.trace_digest.encode())
        h.update(repr(self.latency.fingerprint()).encode())
        h.update(repr(self.queue_wait.fingerprint()).encode())
        for t in self.tenants:
            h.update(
                f"{t.name}:{t.issued}:{t.completed}:{t.rejected}".encode()
            )
            h.update(repr(t.latency.fingerprint()).encode())
        for s in self.shards:
            h.update(
                f"{s.shard_id}:{s.subrequests_served}:{s.disk_reads}:"
                f"{s.budget_bytes}:{s.peak_queue_depth}:{s.rejected_at}".encode()
            )
        h.update(f"{self.duration_us:.3f}:{self.rebalances}".encode())
        for chunk in FailureModel.fingerprint_fragment(
            self
        ) + Tier2Coordinator.fingerprint_fragment(self):
            h.update(chunk.encode())
        return h.hexdigest()

    def format_report(self) -> str:
        """Multi-section text report for the CLI."""
        c = self.config
        lines = [
            f"serve: {c.strategy} | {c.num_clients} clients "
            f"({c.closed_clients} closed) x {c.num_shards} shards "
            f"({c.partition}) | {self.issued} ops | seed {c.seed}",
            f"simulated time: {self.duration_us / 1e6:.3f} s   "
            f"throughput: {self.throughput_qps:,.0f} qps   "
            f"completed: {self.completed}   rejected: {self.rejected}",
            "",
            "latency (us):",
            latency_table(
                {"all": self.latency, "queue wait": self.queue_wait},
                label="metric",
            ),
            "",
            "per-tenant:",
        ]
        rows = []
        for t in self.tenants:
            rows.append(
                [
                    t.name,
                    t.mode,
                    str(t.issued),
                    str(t.completed),
                    str(t.rejected),
                    f"{t.latency.p50:,.0f}",
                    f"{t.latency.p99:,.0f}",
                ]
            )
        lines.append(
            format_table(
                ["tenant", "mode", "issued", "done", "shed", "p50", "p99"],
                rows,
            )
        )
        lines.append("")
        lines.append("per-shard:")
        shard_rows = []
        for s in self.shards:
            shard_rows.append(
                [
                    str(s.shard_id),
                    str(s.keys_owned),
                    str(s.subrequests_served),
                    str(s.disk_reads),
                    f"{s.budget_bytes // 1024} KB",
                    str(s.peak_queue_depth),
                    str(s.rejected_at),
                    f"{100.0 * s.busy_us / self.duration_us if self.duration_us else 0.0:.1f}%",
                ]
            )
        lines.append(
            format_table(
                ["shard", "keys", "served", "sst reads", "budget", "peakq",
                 "shed", "util"],
                shard_rows,
            )
        )
        w = self.fleet_window
        lines.append("")
        lines.append(
            f"fleet: io_miss={w.io_miss} range_hits="
            f"{w.range_point_hits + w.range_scan_hits} "
            f"block_hit_rate={w.block_hit_rate:.3f} "
            f"rebalances={self.rebalances} "
            f"evictions_forced={self.evictions_forced}"
        )
        lines.extend(FailureModel.report_lines(self))
        lines.extend(Tier2Coordinator.report_lines(self))
        lines.append(f"trace digest: {self.trace_digest}")
        return "\n".join(lines)
