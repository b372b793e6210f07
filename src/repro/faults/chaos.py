"""Chaos harness: same workload, one clean engine, one faulted engine.

The resilience claim the harness checks is end-to-end: with transient
read faults, block corruption, crash/restart cycles and controller
stats blackouts injected, the engine must return **byte-identical**
query results to a fault-free run of the same seeded workload — faults
may only cost latency and I/O, never correctness.  A torn-WAL rate can
additionally be configured; torn tails legitimately lose acknowledged
writes at the next crash, so result divergence is then reported in
``wrong_reads`` and the caller decides what to assert.

Used by ``repro.cli chaos`` and ``benchmarks/test_chaos_resilience.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.bench.harness import apply_operation, estimated_hit_rate, seed_database
from repro.bench.report import percentile
from repro.bench.strategies import build_engine
from repro.faults.injector import FaultConfig, FaultInjector, FaultStats
from repro.lsm.options import LSMOptions
from repro.workloads.generator import Operation, WorkloadGenerator, WorkloadSpec
from repro.workloads.generator import balanced_workload


@dataclass
class ChaosReport:
    """Everything one chaos run observed, clean run vs faulted run."""

    ops: int = 0
    wrong_reads: int = 0
    faults: FaultStats = field(default_factory=FaultStats)
    read_retries: int = 0
    corruption_recoveries: int = 0
    crashes: int = 0
    wal_records_replayed: int = 0
    wal_records_lost: int = 0
    degraded_windows: int = 0
    degraded_activations: int = 0
    degraded_recoveries: int = 0
    clean_hit_rate: float = 0.0
    faulty_hit_rate: float = 0.0
    clean_sst_reads: int = 0
    faulty_sst_reads: int = 0
    retry_latency_us: float = 0.0
    retry_stall_p50_us: float = 0.0
    retry_stall_p99_us: float = 0.0

    @property
    def hit_rate_regression(self) -> float:
        """How much estimated hit rate the faults cost (positive = worse)."""
        return self.clean_hit_rate - self.faulty_hit_rate


def run_chaos(
    ops: int = 20_000,
    num_keys: int = 4_000,
    cache_kb: int = 256,
    strategy: str = "adcache",
    spec: Optional[WorkloadSpec] = None,
    options: Optional[LSMOptions] = None,
    transient_read_rate: float = 0.01,
    corruption_rate: float = 0.001,
    torn_wal_rate: float = 0.0,
    crash_every: int = 0,
    blackout_window: Optional[int] = None,
    window_size: Optional[int] = None,
    seed: int = 0,
) -> ChaosReport:
    """Drive the same seeded workload through a clean and a faulted engine.

    ``crash_every > 0`` crashes and recovers the faulted engine every
    that many operations (the clean engine never crashes, so recovery
    correctness is checked against uninterrupted execution).
    ``blackout_window`` poisons ``BLACKOUT_LEN`` controller windows
    starting at that index, exercising degraded mode.
    """
    options = options or LSMOptions(memtable_entries=32, entries_per_sstable=64)
    spec = spec or balanced_workload(num_keys)
    cache_bytes = cache_kb * 1024

    clean_tree = seed_database(num_keys, options, seed=7)
    faulty_tree = seed_database(num_keys, LSMOptions(**vars(options)), seed=7)
    clean_engine = build_engine(strategy, clean_tree, cache_bytes, seed=seed)
    faulty_engine = build_engine(strategy, faulty_tree, cache_bytes, seed=seed)
    if window_size is not None:
        # Shorten the control cadence (both engines alike) so short chaos
        # runs still cross enough window boundaries to exercise the
        # controller and any scheduled blackout.
        clean_engine.window_size = window_size
        faulty_engine.window_size = window_size

    injector = FaultInjector(
        FaultConfig(
            transient_read_rate=transient_read_rate,
            corruption_rate=corruption_rate,
            torn_wal_rate=torn_wal_rate,
            blackout_start=blackout_window,
            seed=seed,
        )
    )
    faulty_tree.attach_fault_injector(injector)
    if blackout_window is not None and faulty_engine.on_window is not None:
        downstream = faulty_engine.on_window
        faulty_engine.on_window = lambda window: downstream(
            injector.maybe_blackout(window)
        )

    op_list: List[Operation] = list(WorkloadGenerator(spec, seed=seed + 1).ops(ops))
    report = ChaosReport(ops=len(op_list))
    for i, op in enumerate(op_list, start=1):
        if apply_operation(clean_engine, op) != apply_operation(faulty_engine, op):
            report.wrong_reads += 1
        if crash_every and i % crash_every == 0:
            report.wal_records_replayed += faulty_engine.crash_and_recover()
            report.crashes += 1

    clean_engine.flush_window()
    faulty_engine.flush_window()

    report.faults = injector.stats
    report.read_retries = faulty_tree.read_retries_total
    report.corruption_recoveries = faulty_tree.corruption_recoveries_total
    report.retry_latency_us = faulty_tree.retry_latency_us_total
    report.retry_stall_p50_us = percentile(faulty_tree.retry_stalls_us, 0.50)
    report.retry_stall_p99_us = percentile(faulty_tree.retry_stalls_us, 0.99)
    report.wal_records_lost = faulty_tree.wal_records_lost_total
    report.clean_hit_rate = estimated_hit_rate(clean_engine)[0]
    report.faulty_hit_rate = estimated_hit_rate(faulty_engine)[0]
    report.clean_sst_reads = clean_tree.disk.block_reads_total
    report.faulty_sst_reads = faulty_tree.disk.block_reads_total
    controller = getattr(faulty_engine, "controller", None)
    if controller is not None:
        report.degraded_windows = controller.degraded_windows_total
        report.degraded_activations = controller.degraded_activations_total
        report.degraded_recoveries = controller.degraded_recoveries_total
    return report


def report_rows(report: ChaosReport) -> List[Tuple[str, str]]:
    """(metric, value) rows for tabular display of a chaos run."""
    return [
        ("operations", f"{report.ops:,}"),
        ("wrong reads", f"{report.wrong_reads}"),
        ("transient faults injected", f"{report.faults.transient_injected:,}"),
        ("corruptions injected", f"{report.faults.corruptions_injected:,}"),
        ("torn WAL appends", f"{report.faults.torn_injected:,}"),
        ("read retries", f"{report.read_retries:,}"),
        ("corruption recoveries", f"{report.corruption_recoveries:,}"),
        ("retry stall p50 (us)", f"{report.retry_stall_p50_us:,.0f}"),
        ("retry stall p99 (us)", f"{report.retry_stall_p99_us:,.0f}"),
        ("crashes", f"{report.crashes}"),
        ("WAL records replayed", f"{report.wal_records_replayed:,}"),
        ("WAL records lost (torn)", f"{report.wal_records_lost:,}"),
        ("degraded windows", f"{report.degraded_windows}"),
        ("degraded activations", f"{report.degraded_activations}"),
        ("degraded recoveries", f"{report.degraded_recoveries}"),
        ("hit rate (clean)", f"{report.clean_hit_rate:.3f}"),
        ("hit rate (faulted)", f"{report.faulty_hit_rate:.3f}"),
        ("hit-rate regression", f"{report.hit_rate_regression:+.3f}"),
        ("SST reads (clean)", f"{report.clean_sst_reads:,}"),
        ("SST reads (faulted)", f"{report.faulty_sst_reads:,}"),
    ]
