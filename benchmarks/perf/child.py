"""One benchmark repeat, in its own process.

``run.py`` starts this file once per repeat (fresh interpreter,
``PYTHONHASHSEED=0``, one thread) and reads one JSON object from the
last line of its standard output.  Two modes:

* ``timed`` — host and simulated end-to-end numbers, nothing wrapped.
* ``traced`` — :mod:`trace` wrappers installed before anything is
  built; yields host self-time per layer, per-layer counters, the
  simulated cost shares and the per-op simulated latencies.

Both modes check every output: engine workloads against a dict +
sorted-keys reference model, serving workloads against the fleet's own
conservation and durability ledgers.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import resource
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

CALIBRATION_OPS = 100_000
#: Null ``run_serve`` calls per child, each one ``setup_s`` sample.
SERVE_SETUP_REPEATS = 3
#: Pieces an engine workload's measured region is timed in.  Every repeat
#: runs the same ops, so piece ``j`` is the same work in each of them.
SEGMENTS = 100
#: Span slots preallocated in the traced child per unit of ``--scale``
#: (26 bytes each); the busiest workload records 286 000 at scale 1.
SPAN_CAPACITY = 400_000


def calibration_ops_per_s() -> float:
    """Ops/s of a fixed dict/string loop: the host-speed probe.

    Run before and after the timed region; a repeat whose two readings
    disagree ran on a host that changed speed under it.
    """
    start = time.perf_counter()
    table: Dict[str, int] = {}
    acc = 0
    for i in range(CALIBRATION_OPS):
        key = "key-%07d" % (i & 8191)
        table[key] = i
        acc += table[key] ^ (i >> 3)
    return CALIBRATION_OPS / (time.perf_counter() - start)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- reference model ----------------------------------------------------------


class ReferenceModel:
    """A dict plus its sorted keys: what the engine must agree with."""

    def __init__(self, items: Sequence[Tuple[str, str]]) -> None:
        self.data = dict(items)
        self.keys = sorted(self.data)

    def get(self, key: str) -> Optional[str]:
        return self.data.get(key)

    def scan(self, start: str, length: int) -> List[Tuple[str, str]]:
        lo = bisect.bisect_left(self.keys, start)
        return [(k, self.data[k]) for k in self.keys[lo : lo + length]]

    def put(self, key: str, value: str) -> None:
        if key not in self.data:
            bisect.insort(self.keys, key)
        self.data[key] = value

    def delete(self, key: str) -> None:
        if key in self.data:
            del self.data[key]
            del self.keys[bisect.bisect_left(self.keys, key)]

    def apply_write(self, op) -> None:
        if op.kind == "put":
            self.put(op.key, op.value or "")
        elif op.kind == "delete":
            self.delete(op.key)


def check_outputs(workload, ops, warmup: int, outputs: list) -> Tuple[int, List[str]]:
    """Replay ``ops`` through the reference model; count wrong outputs.

    ``outputs`` holds, in order, what the engine returned in the
    measured region: one entry per get/scan (scalar), or one list per
    ``multi_get``/``multi_scan`` call (batched, reads before writes —
    ``apply_batch``'s serialization).  Warm-up ops only move the model.
    """
    from repro.workloads.keys import key_of, value_of

    model = ReferenceModel([(key_of(i), value_of(i)) for i in range(workload.num_keys)])
    for op in ops[:warmup]:
        model.apply_write(op)
    wrong = 0
    examples: List[str] = []

    def expect(op, got) -> None:
        nonlocal wrong
        want = model.get(op.key) if op.kind == "get" else model.scan(op.key, op.length)
        if got != want:
            wrong += 1
            if len(examples) < 5:
                examples.append(f"{op.kind} {op.key}: got {got!r}, want {want!r}")

    produced = iter(outputs)
    batch = workload.batch_size
    for lo in range(warmup, len(ops), batch):
        chunk = ops[lo : lo + batch]
        if batch == 1:
            op = chunk[0]
            if op.kind in ("get", "scan"):
                expect(op, next(produced))
            else:
                model.apply_write(op)
            continue
        for kind in ("get", "scan"):
            reads = [op for op in chunk if op.kind == kind]
            if reads:
                for op, got in zip(reads, next(produced)):
                    expect(op, got)
        for op in chunk:
            model.apply_write(op)
    if next(produced, None) is not None:
        wrong += 1
        examples.append("engine produced more outputs than the op stream has reads")
    return wrong, examples


# -- engine workloads -----------------------------------------------------------


def run_engine(workload, seed: int, scale: float, tracer) -> Dict[str, object]:
    from repro.bench.harness import apply_batch, estimated_hit_rate, seed_database
    from repro.bench.simclock import ClockReading, SimClock, elapsed_us
    from repro.bench.strategies import build_engine

    import metrics
    from workloads import DB_SEED, ENGINE_SEED, STRATEGY

    setup_start = time.perf_counter()
    tree = seed_database(workload.num_keys, workload.options(), seed=DB_SEED)
    engine = build_engine(STRATEGY, tree, workload.cache_bytes, seed=ENGINE_SEED)
    ops = workload.materialise(seed, scale)
    setup_s = time.perf_counter() - setup_start
    _, warmup = workload.scaled_ops(scale)
    batch = workload.batch_size
    outputs: list = []

    if batch > 1:
        # apply_batch drops what multi_get/multi_scan return; keep it.
        for name in ("multi_get", "multi_scan"):
            setattr(engine, name, _recording(getattr(engine, name), outputs))

    def drive(span_ops) -> None:
        """The measured loop: scalar calls, or ``apply_batch`` per batch."""
        if batch > 1:
            for lo in range(0, len(span_ops), batch):
                apply_batch(engine, span_ops[lo : lo + batch])
            return
        get, scan, put, delete = engine.get, engine.scan, engine.put, engine.delete
        record = outputs.append
        for kind, key, length, value in span_ops:
            if kind == "get":
                record(get(key))
            elif kind == "scan":
                record(scan(key, length))
            elif kind == "put":
                put(key, value or "")
            else:
                delete(key)

    drive(ops[:warmup])
    del outputs[:]  # warm-up reads are not checked
    measured = ops[warmup:]
    counters_before = metrics.engine_counters(engine)
    latencies: List[float] = []
    calibration = [calibration_ops_per_s()]
    gc.collect()
    before = ClockReading.capture(engine)
    segment_s: List[float] = []
    if tracer is None:
        step = max(batch, len(measured) // SEGMENTS // batch * batch)
        pieces = [measured[lo : lo + step] for lo in range(0, len(measured), step)]
        mark = time.perf_counter()
        for piece in pieces:
            drive(piece)
            now = time.perf_counter()
            segment_s.append(now - mark)
            mark = now
    else:
        # One root span per op (or batch); the per-op sim-clock charge
        # and the slicing around it stay outside the span.
        clock = SimClock(engine)
        rec = tracer.rec
        root = rec.wrap(drive, tracer.root_id)
        for lo in range(0, len(measured), batch):
            chunk = measured[lo : lo + batch]
            rec.op_id = lo // batch
            rec.on = True
            root(chunk)
            rec.on = False
            latencies.append(clock.charge() / len(chunk))
    after = ClockReading.capture(engine)
    calibration.append(calibration_ops_per_s())

    _, io_estimate, io_miss = estimated_hit_rate(engine, baseline=before)
    sim_us = elapsed_us(before, after)
    wrong, examples = check_outputs(workload, ops, warmup, outputs)
    fingerprint = hashlib.sha256(
        repr((sorted(vars(before).items()), sorted(vars(after).items()),
              io_estimate, len(outputs))).encode()
    ).hexdigest()
    result: Dict[str, object] = {
        "setup_samples": [setup_s],
        "segment_s": segment_s,
        "ops": len(measured),
        "completed": len(measured),
        "warmup_ops": warmup,
        "calibration": calibration,
        "sim_us": sim_us,
        "io_reads": after.disk_reads - before.disk_reads,
        "io_estimate": io_estimate,
        "io_miss": io_miss,
        "attempted": len(measured),
        "failed": wrong,
        "mismatches": examples,
        "conserved": True,
        "fingerprint": fingerprint,
    }
    if tracer is not None:
        counters_after = metrics.engine_counters(engine)
        delta = {k: counters_after[k] - counters_before[k] for k in counters_after}
        layers = metrics.layer_metrics([delta], [engine])
        terms, total_us = metrics.checked_cost_terms([(before, after)])
        result.update(
            layers=layers,
            cost_us=terms,
            cost_total_us=total_us,
            sim_p50_us=metrics.exact_percentile(latencies, 0.50),
            sim_p99_us=metrics.exact_percentile(latencies, 0.99),
            latency_samples=len(latencies),
        )
    return result


def _recording(method: Callable, sink: list) -> Callable:
    def recorded(*args):
        out = method(*args)
        sink.append(out)
        return out

    return recorded


# -- serving workloads ----------------------------------------------------------


def serve_summary(result) -> Dict[str, object]:
    """End-to-end numbers of one ``ServeResult`` (no engine access)."""
    from repro.lsm.options import LSMOptions
    from repro.rl.reward import estimate_no_cache_io

    config = result.config
    window = result.fleet_window
    options = LSMOptions(
        memtable_entries=config.memtable_entries,
        entries_per_sstable=config.entries_per_sstable,
    )
    avg_scan = window.scan_length_sum / window.scans if window.scans else 0.0
    io_estimate = estimate_no_cache_io(
        window.points, window.scans, avg_scan, options.entries_per_block,
        window.num_levels, options.level0_stop_writes_trigger,
    )
    io_reads = sum(shard.disk_reads for shard in result.shards)
    return {
        "ops": result.issued,
        "completed": result.completed,
        "sim_us": result.duration_us,
        "io_reads": io_reads,
        "io_estimate": io_estimate,
        "io_miss": window.io_miss,
        "sim_p50_us": result.latency.p50,
        "sim_p99_us": result.latency.p99,
        "latency_samples": result.latency.count,
        "attempted": result.issued,
        "failed": result.rejected + result.lost_acked_writes,
        "mismatches": [],
        "conserved": result.issued == result.completed + result.rejected
        and result.lost_acked_writes == 0,
        "fingerprint": result.fingerprint(),
    }


def run_serve_workload(workload, seed: int, scale: float, tracer) -> Dict[str, object]:
    from repro.serve import run_serve

    import metrics

    setups = []
    for _ in range(SERVE_SETUP_REPEATS):
        start = time.perf_counter()
        run_serve(workload.null_config(seed))
        setups.append(time.perf_counter() - start)
    config = workload.config(seed, scale)
    calibration = [calibration_ops_per_s()]
    gc.collect()
    segment_s: List[float] = []
    if tracer is None:
        start = time.perf_counter()
        served = run_serve(config)
        segment_s.append(time.perf_counter() - start)  # a fleet run is one piece
    else:
        tracer.engines.clear()  # the null runs' fleets
        root = tracer.rec.wrap(run_serve, tracer.root_id)
        tracer.rec.on = True
        served = root(config)
        tracer.rec.on = False
    calibration.append(calibration_ops_per_s())
    result = serve_summary(served)
    result.update(setup_samples=setups, segment_s=segment_s, warmup_ops=0,
                  calibration=calibration)
    if tracer is not None:
        from repro.bench.simclock import ClockReading

        tracked = list(tracer.engines.values())
        engines = [engine for engine, _, _ in tracked]
        deltas = []
        pairs = []
        for engine, first_reading, first_counters in tracked:
            now = metrics.engine_counters(engine)
            deltas.append({k: now[k] - first_counters[k] for k in now})
            pairs.append((first_reading, ClockReading.capture(engine)))
        layers = metrics.layer_metrics(deltas, engines)
        layers.update(serve_layer_metrics(served))
        terms, total_us = metrics.checked_cost_terms(pairs)
        result.update(layers=layers, cost_us=terms, cost_total_us=total_us)
    return result


def serve_layer_metrics(result) -> Dict[str, float]:
    """``serve.*``, ``cache.tier2.*`` and ``obs.*`` from a ``ServeResult``."""
    shed = dict(result.shed_by_reason)
    if not result.config.resilience_active:
        # The legacy fleet sheds for one reason and does not itemise it.
        shed = {"queue_full": result.rejected}
    duration = result.duration_us or 1.0
    busy = [shard.busy_us / duration for shard in result.shards]
    probes = result.l2_probes
    return {
        "serve.shed.queue_full": shed.pop("queue_full", 0),
        "serve.shed.deadline": shed.pop("deadline", 0),
        "serve.shed.other": sum(shed.values()),
        "serve.rebalances": result.rebalances,
        "serve.evictions_forced": result.evictions_forced,
        "serve.queue_wait_p99_us": result.queue_wait.p99,
        "serve.shard_busy_max_frac": max(busy),
        "serve.shard_busy_min_frac": min(busy),
        "serve.peak_queue_depth": max(s.peak_queue_depth for s in result.shards),
        "serve.hedges": result.hedges,
        "serve.hedge_wins": result.hedge_wins,
        "serve.crashes": result.crashes,
        "serve.promotions": result.promotions,
        "serve.failover_us": sum(s.failover_us for s in result.shards),
        "serve.wal_replayed": sum(s.wal_replayed for s in result.shards),
        "serve.scans_partial": result.scans_partial,
        "serve.acked_writes_checked": result.acked_writes_checked,
        "serve.l2_share_end": result.l2_share_final,
        "cache.tier2.probes": probes,
        "cache.tier2.hits": result.l2_hits,
        "cache.tier2.hit_rate": result.l2_hits / probes if probes else 0.0,
        "cache.tier2.demotions": result.l2_demotions,
        "cache.tier2.admits": result.l2_admits,
        "cache.tier2.rejects": result.l2_rejects,
        "cache.tier2.ghost_hits": result.l2_ghost_hits,
        "cache.tier2.evictions": result.l2_evictions,
        "cache.tier2.used_frac_end": (
            result.l2_used_bytes / result.l2_budget_bytes if result.l2_budget_bytes else 0.0
        ),
        "obs.events_recorded": sum(r.trace.next_seq for r in result.obs_recorders),
        "obs.events_dropped": sum(r.trace.dropped_total for r in result.obs_recorders),
        "obs.windows": len(result.obs_fleet_windows),
    }


def run_ladder(workload, seed: int, scale: float) -> Dict[str, object]:
    """serve_flat's deterministic rate ladder: one untimed run per rung."""
    from repro.serve import run_serve

    from workloads import LADDER_FAILED_LIMIT, LADDER_P99_LIMIT_US, RATE_LADDER_OPS_S

    rungs = []
    for rate in RATE_LADDER_OPS_S:
        summary = serve_summary(run_serve(workload.config(seed, scale, rate_ops_s=rate)))
        failed_frac = summary["failed"] / summary["attempted"]
        rungs.append({
            "rate_ops_s": rate,
            "sim_p99_us": summary["sim_p99_us"],
            "failed_frac": failed_frac,
            "ok": summary["sim_p99_us"] <= LADDER_P99_LIMIT_US
            and failed_frac <= LADDER_FAILED_LIMIT,
        })
    passing = [r["rate_ops_s"] for r in rungs if r["ok"]]
    return {"rungs": rungs, "sim_max_rate_ok": max(passing) if passing else 0.0}


# -- tracing glue -----------------------------------------------------------------


class Tracer:
    """The span recorder plus the fleet's engines, found through the
    public ``ClockReading.capture`` every shard clock calls on its engine."""

    def __init__(self, scale: float) -> None:
        from repro.bench.simclock import ClockReading

        import metrics
        import trace

        self.engines: Dict[int, tuple] = {}
        engines = self.engines
        capture = ClockReading.__dict__["capture"].__func__

        def registering_capture(cls, engine):
            reading = capture(cls, engine)
            if id(engine) not in engines:
                engines[id(engine)] = (engine, reading, metrics.engine_counters(engine))
            return reading

        ClockReading.capture = classmethod(registering_capture)
        self.rec = trace.SpanRecorder(int(SPAN_CAPACITY * max(1.0, scale)))
        self.root_id = trace.install(self.rec)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=("timed", "traced", "ladder"), default="timed")
    parser.add_argument("--dump-spans", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.mode == "ladder":
        result = run_ladder(workload, args.seed, args.scale)
    else:
        tracer = Tracer(args.scale) if args.mode == "traced" else None
        runner = run_engine if workload.kind == "engine" else run_serve_workload
        result = runner(workload, args.seed, args.scale, tracer)
        if tracer is not None:
            result["trace"] = tracer.rec.rollup()
            if args.dump_spans:
                tracer.rec.dump(args.dump_spans)
    result.update(workload=args.workload, seed=args.seed, mode=args.mode,
                  peak_rss_mb=peak_rss_mb())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
