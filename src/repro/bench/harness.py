"""Workload execution harness: seed, run, measure.

The measurements mirror the paper's metrics:

* **estimated hit rate** — ``1 - IO_miss / IO_estimate`` over the run,
  the same no-cache-baseline normalisation the reward model uses (it is
  the only hit-rate definition applicable to result caches);
* **SST reads** — metered data-block reads reaching the simulated disk;
* **QPS** — operations over simulated time from the cost model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

from repro.bench.simclock import ClockReading, elapsed_us
from repro.core.engine import KVEngine
from repro.errors import ConfigError
from repro.lsm.block import Entry
from repro.lsm.options import LSMOptions
from repro.lsm.tree import LSMTree
from repro.rl.reward import h_estimate
from repro.workloads.generator import Operation, WorkloadGenerator, WorkloadSpec
from repro.workloads.keys import key_of, value_of


@dataclass
class RunResult:
    """Metrics for one (strategy, workload, configuration) run."""

    name: str
    ops: int
    hit_rate: float
    sst_reads: int
    elapsed_us: float
    qps: float
    io_estimate: float
    io_miss: int
    range_point_hits: int = 0
    range_scan_hits: int = 0
    block_hit_rate: float = 0.0
    compactions: int = 0

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (
            f"{self.name}: hit={self.hit_rate:.3f} sst_reads={self.sst_reads} "
            f"qps={self.qps:,.0f}"
        )


def seed_database(
    num_keys: int,
    options: Optional[LSMOptions] = None,
    seed: int = 7,
) -> LSMTree:
    """Create a tree pre-populated with ``num_keys`` sequential keys.

    Uses bulk loading to lay out a realistic multi-level LSM without
    replaying every insert.
    """
    tree = LSMTree(options or LSMOptions())
    tree.bulk_load(((key_of(i), value_of(i)) for i in range(num_keys)), seed=seed)
    return tree


#: What one operation reads: a get's value, a scan's entries, or None.
OpResult = Union[Optional[str], List[Entry]]


def apply_operation(engine: KVEngine, op: Operation) -> OpResult:
    """Execute one workload operation against an engine.

    Returns what the operation reads: the value (None when absent) for
    a get, the entries for a scan, and None for a put or delete.
    """
    if op.kind == "get":
        return engine.get(op.key)
    if op.kind == "scan":
        return engine.scan(op.key, op.length)
    if op.kind == "put":
        engine.put(op.key, op.value or "")
    elif op.kind == "delete":
        engine.delete(op.key)
    else:
        raise ConfigError(f"unknown operation kind {op.kind!r}")
    return None


def apply_batch(engine: KVEngine, ops: List[Operation]) -> None:  # hot-path
    """Execute one workload batch through the engine's ``multi_*`` API.

    Batches carry client-side batch semantics (the MultiGet/WriteBatch
    model): every read observes the pre-batch state, then the batch's
    writes apply in arrival order.  That is a valid serialization of
    the batch — reads first, writes after — so any result is one a
    scalar replay of some equivalent order would produce, and it lets
    every get in the batch share a single :meth:`KVEngine.multi_get`
    (vectorized bloom/sketch probes, coalesced block fetches) no matter
    how the generator interleaved kinds.
    """
    gets = [op.key for op in ops if op.kind == "get"]
    if gets:
        engine.multi_get(gets)
    scans = [(op.key, op.length) for op in ops if op.kind == "scan"]
    if scans:
        engine.multi_scan(scans)
    writes = [op for op in ops if op.kind in ("put", "delete")]
    i, n = 0, len(writes)
    while i < n:
        if writes[i].kind == "delete":
            engine.delete(writes[i].key)
            i += 1
            continue
        j = i + 1
        while j < n and writes[j].kind == "put":
            j += 1
        engine.multi_put([(op.key, op.value or "") for op in writes[i:j]])
        i = j


def estimated_hit_rate(
    engine: KVEngine,
    baseline: Optional[ClockReading] = None,
) -> Tuple[float, float, int]:
    """Whole-run ``(h_estimate, io_estimate, io_miss)`` for an engine.

    ``baseline`` restricts the computation to activity after a snapshot
    (used to exclude warmup).
    """
    totals = engine.collector.totals()
    io_miss = engine.tree.disk.block_reads_total
    points, scans = totals.points, totals.scans
    scan_len_sum = totals.scan_length_sum
    if baseline is not None:
        io_miss -= baseline.disk_reads
        points -= baseline.points
        scans -= baseline.scans
        scan_len_sum -= baseline.scan_entries
    options = engine.tree.options
    h, io_estimate = h_estimate(
        points,
        scans,
        scan_len_sum,
        io_miss,
        options.entries_per_block,
        engine.tree.num_levels,
        options.level0_stop_writes_trigger,
    )
    return h, io_estimate, io_miss


def run_workload(
    engine: KVEngine,
    workload: Iterable[Operation],
    num_ops: Optional[int] = None,
    name: str = "run",
    warmup_ops: int = 0,
) -> RunResult:
    """Drive ``workload`` through ``engine`` and collect metrics.

    ``workload`` may be a :class:`WorkloadGenerator` (give ``num_ops``)
    or any iterable of operations.  ``warmup_ops`` are executed first
    and excluded from every metric.
    """
    if isinstance(workload, (WorkloadGenerator,)):
        if num_ops is None:
            raise ValueError("num_ops is required with a WorkloadGenerator")
        ops_iter = workload.ops(num_ops + warmup_ops)
    else:
        ops_iter = iter(workload)

    for op in itertools.islice(ops_iter, warmup_ops):
        apply_operation(engine, op)
    before = ClockReading.capture(engine)
    totals_before = engine.collector.totals()

    measured = 0
    for op in ops_iter:
        apply_operation(engine, op)
        measured += 1
        if num_ops is not None and measured >= num_ops:
            break

    after = ClockReading.capture(engine)
    totals_after = engine.collector.totals()
    hit_rate, io_estimate, io_miss = estimated_hit_rate(engine, baseline=before)
    elapsed = elapsed_us(before, after)
    qps = measured / (elapsed / 1e6) if elapsed > 0 else 0.0
    block_lookups = after.block_lookups - before.block_lookups
    block_hits = block_lookups - (after.disk_reads - before.disk_reads)
    return RunResult(
        name=name,
        ops=measured,
        hit_rate=hit_rate,
        sst_reads=after.disk_reads - before.disk_reads,
        elapsed_us=elapsed,
        qps=qps,
        io_estimate=io_estimate,
        io_miss=io_miss,
        range_point_hits=(
            totals_after.range_point_hits - totals_before.range_point_hits
        ),
        range_scan_hits=(
            totals_after.range_scan_hits - totals_before.range_scan_hits
        ),
        block_hit_rate=(block_hits / block_lookups if block_lookups > 0 else 0.0),
        compactions=totals_after.compactions - totals_before.compactions,
    )


def run_phases(
    engine: KVEngine,
    phases: List[Tuple[str, WorkloadSpec]],
    ops_per_phase: int,
    seed: int = 0,
) -> List[RunResult]:
    """Run a phase sequence (dynamic workload), one result per phase.

    Engine and cache state carry across phases — that continuity is the
    entire point of the dynamic evaluation.
    """
    results: List[RunResult] = []
    for i, (name, spec) in enumerate(phases):
        generator = WorkloadGenerator(spec, seed=seed + i * 1000 + 1)
        results.append(
            run_workload(engine, generator, num_ops=ops_per_phase, name=name)
        )
    return results
