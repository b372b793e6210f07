"""The repo benchmark: seven workloads, end to end and layer by layer.

    python3 benchmarks/perf/run.py [--seed N] [--json OUT] [--workload NAME] [--quick]
    python3 benchmarks/perf/run.py compare A.json B.json
    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py declare > BENCHMARK.json

The first form runs every workload, prints each metric by name with its
unit, checks the outputs and writes one JSON report.  The third is the
form ``BENCHMARK.json`` declares: one workload, and the last line of
standard output is one JSON object.  The fourth prints ``BENCHMARK.json``
from the tables in ``metrics.py`` and ``workloads.py``.  See README.md
beside this file.

Every repeat runs in a fresh child process (``child.py``), one at a
time; this process only starts them and does arithmetic on what they
print.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: no package under {SRC}; run from a checkout of the whole repo")
sys.path[:0] = [str(SRC), str(HERE)]

import metrics  # noqa: E402
from trace import HOOKS, LAYERS  # noqa: E402
from workloads import QUICK_DIVISOR, RUN_SECONDS, WORKLOADS  # noqa: E402

#: A repeat whose before/after calibration readings differ by more than
#: this share ran on a host that changed speed; it is re-run once.
CALIBRATION_TOLERANCE = 0.15
CHILD_TIMEOUT_S = 170
#: Repeats of a ``--quick`` run, which checks the machinery, not the host.
SMOKE_REPEATS = 2
#: Layers that must not run at all on a workload that switches them off.
MUST_BE_IDLE = {"serve_flat": ("cache.tier2", "serve.resilience", "obs")}


class SelfCheckError(Exception):
    """The benchmark caught itself measuring wrongly; no number is valid."""


# -- children -------------------------------------------------------------------


def spawn(workload: str, seed: int, scale: float, mode: str,
          dump_spans: Optional[str] = None) -> Dict[str, object]:
    """Run one child to completion and return the object it printed."""
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--scale", repr(scale), "--mode", mode]
    if dump_spans:
        command += ["--dump-spans", dump_spans]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SelfCheckError(
            f"{workload} {mode} child (seed {seed}) exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def calibration_drift(child: Dict[str, object]) -> float:
    before, after = child["calibration"]
    return abs(after - before) / max(before, after)


def timed_rounds(names: Sequence[str], seed: int, scale: float, smoke: bool, rounds: int):
    """Up to ``rounds`` timed children per workload, all on ``seed``.

    Rounds go over the workloads in turn, so one workload's repeats are
    spread over the whole run and a multi-second burst of interference
    catches one of them, not all.  Outside a ``smoke`` run, a repeat
    whose host changed speed under it is discarded and re-run once.
    Returns ``{name: children}`` and ``{name: discarded}``.
    """
    children: Dict[str, list] = {name: [] for name in names}
    discarded = dict.fromkeys(names, 0)
    for done in range(rounds):
        for name in names:
            if done >= WORKLOADS[name].repeats:
                continue
            child = spawn(name, seed, scale, "timed")
            if not smoke and calibration_drift(child) > CALIBRATION_TOLERANCE:
                discarded[name] += 1
                child = spawn(name, seed, scale, "timed")
            children[name].append(child)
    return children, discarded


# -- arithmetic on what the children printed -----------------------------------


def floor_wall_s(children: Sequence[Dict[str, object]]) -> float:
    """Wall seconds of the timed region with nobody else on the core.

    Every repeat times the same pieces of the same work (``segment_s``),
    so piece ``j`` has one true cost and every timing of it is that cost
    plus whatever the host's other tenants added.  The estimate is the
    sum over pieces of the fastest timing of that piece.  Why not the
    median of the repeats' walls, which the issue asked for: README,
    "Why the host wall is a floor".
    """
    pieces = zip(*(c["segment_s"] for c in children))
    return sum(min(timings) for timings in pieces)


def setup_floor_s(kind: str, children: Sequence[Dict[str, object]]) -> float:
    """What a fleet run's wall holds that is set-up, undisturbed like the floor."""
    if kind != "serve":
        return 0.0
    # A cold fleet run rebuilds what the null run built.
    return min(sample for c in children for sample in c["setup_samples"])


def repeat_ops_per_s(kind: str, children: Sequence[Dict[str, object]]) -> List[float]:
    """Ops per wall second of each whole repeat, disturbed or not."""
    setup_s = setup_floor_s(kind, children)
    return [c["ops"] / (sum(c["segment_s"]) - setup_s) for c in children]


def end_to_end(kind: str, children: Sequence[Dict[str, object]]) -> Dict[str, Optional[float]]:
    """The end-to-end metrics that untraced repeats yield."""
    first = children[0]  # the simulated numbers are the same in every repeat
    wall_s = floor_wall_s(children) - setup_floor_s(kind, children)
    return {
        "setup_s": statistics.median(s for c in children for s in c["setup_samples"]),
        "host_ops_per_s": first["ops"] / wall_s,
        "host_peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "sim_qps": first["completed"] / first["sim_us"] * 1e6,
        "sim_hit_rate": 1.0 - first["io_miss"] / first["io_estimate"],
        "sim_io_per_op": first["io_reads"] / first["ops"],
        "failed_frac": first["failed"] / first["attempted"],
    }


def silent_hooks(name: str, calls: Dict[str, int]) -> List[str]:
    """Entry points workload ``name`` must exercise that recorded no call."""
    return [h.name for h in HOOKS if h.exercised_by == name and not calls[h.name]]


def per_layer(name: str, traced: Dict[str, object], repeats: Sequence[Dict[str, object]],
              ladder: Optional[Dict[str, object]], smoke: bool) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one workload, self-checks included.

    ``repeats`` are the untraced repeats: the traced child must have
    simulated the same run, and its wall over theirs is the tracing
    overhead.  A ``smoke`` run is too short to reach every entry point
    (the arbiter's first round comes after 2 000 requests), so it skips
    that check.
    """
    timed = repeats[0]
    if traced["fingerprint"] != timed["fingerprint"]:
        raise SelfCheckError(
            f"{name}: traced fingerprint {traced['fingerprint'][:12]} != untraced "
            f"{timed['fingerprint'][:12]}; tracing changed the simulated run"
        )
    if traced["failed"] != timed["failed"]:
        raise SelfCheckError(
            f"{name}: {traced['failed']} wrong outputs traced, {timed['failed']} untraced: "
            f"{traced['mismatches']}"
        )
    trace = traced["trace"]
    if trace["dropped"]:
        raise SelfCheckError(
            f"{name}: {trace['dropped']} spans did not fit child.SPAN_CAPACITY; raise it"
        )
    calls = trace["hook_calls"]
    if not smoke and silent_hooks(name, calls):
        raise SelfCheckError(
            f"{name}: hooks recorded no call (broken hook): {silent_hooks(name, calls)}"
        )
    root_ns = trace["root_ns"]
    out: Dict[str, Optional[float]] = {
        f"host.frac.{layer}": trace["layer_self_ns"][layer] / root_ns for layer in LAYERS
    }
    total = sum(out.values())
    if abs(total - 1.0) > 1e-9:
        raise SelfCheckError(f"{name}: host.frac.* sum to {total!r}, not 1")
    busy = [layer for layer in MUST_BE_IDLE.get(name, ()) if out[f"host.frac.{layer}"] != 0.0]
    if busy:
        raise SelfCheckError(f"{name}: layers that must be idle ran: {busy}")

    out.update(traced["layers"])
    elapsed = traced["cost_total_us"]
    for term, us in traced["cost_us"].items():
        out[f"sim.cost.{term}"] = us / elapsed if elapsed else 0.0
    events = calls["EventLoop.step"]
    out["serve.loop.events"] = events
    out["serve.loop.host_us_per_event"] = (
        trace["layer_self_ns"]["serve.loop"] / 1e3 / events if events else None
    )
    out["bench.trace_overhead_frac"] = root_ns / 1e9 / floor_wall_s(repeats) - 1.0
    out["bench.calibration_ops_per_s"] = statistics.median(
        reading for child in (traced, *repeats) for reading in child["calibration"]
    )
    for metric in ("sim_p50_us", "sim_p99_us"):
        out[metric] = traced[metric]
    out["sim_max_rate_ok"] = ladder["sim_max_rate_ok"] if ladder else None
    for missing in set(metrics.PER_LAYER_NAMES) - set(out):
        out[missing] = None  # a layer this workload does not have
    return out


def null_reason(metric: str, name: str) -> str:
    """Why ``metric`` has no value on workload ``name`` (``null`` in the report)."""
    kind = WORKLOADS[name].kind
    if metric == "sim_max_rate_ok":
        return "the rate ladder runs on serve_flat only"
    if metric == "sim_write_amp":
        return "read-only workload"
    if metric.startswith(("serve.", "obs.", "cache.tier2.")) and kind == "engine":
        return "single-engine workload: no fleet, shared tier or recorder"
    if metric.startswith(("cache.tier2.", "obs.")):
        return "stage off on this workload"
    return "not defined on this workload"


# -- one workload ------------------------------------------------------------------


def measure(names: Sequence[str], seed: int, scale: float, timed: bool = True,
            traced: bool = True, smoke: bool = False,
            dump_spans: bool = False) -> Dict[str, Dict[str, object]]:
    """Every child of ``names``, aggregated into one report entry each."""
    rounds = 1 if not timed else SMOKE_REPEATS if smoke else max(
        WORKLOADS[name].repeats for name in names)
    children, discarded = timed_rounds(names, seed, scale, smoke, rounds)
    return {
        name: assemble(name, seed, scale, children[name], discarded[name], traced, smoke,
                       dump_spans)
        for name in names
    }


def assemble(name: str, seed: int, scale: float, children: List[Dict[str, object]],
             discarded: int, traced: bool, smoke: bool, dump_spans: bool) -> Dict[str, object]:
    """One workload's report entry from its untraced repeats (+ traced child)."""
    workload = WORKLOADS[name]
    fingerprints = {c["fingerprint"] for c in children}
    if len(fingerprints) != 1:
        raise SelfCheckError(
            f"{name}: identical repeats simulated different runs "
            f"({sorted(f[:12] for f in fingerprints)}); the op path is nondeterministic"
        )
    if not all(c["conserved"] for c in children):
        raise SelfCheckError(f"{name}: the fleet lost a request or an acknowledged write")
    e2e = end_to_end(workload.kind, children)
    entry: Dict[str, object] = {
        "kind": workload.kind,
        "why": workload.why,
        "start": "cold, whole run measured" if workload.kind == "serve"
        else f"first {children[0]['warmup_ops']} ops are warm-up, excluded",
        "repeats": len(children),
        "repeats_discarded": discarded,
        "ops_per_repeat": children[0]["ops"],
        "attempted": children[0]["attempted"],
        "failed": children[0]["failed"],
        "mismatches": children[0]["mismatches"],
        "sim_fingerprint": children[0]["fingerprint"],
        "end_to_end": e2e,
        # Whole repeats: what the host did to us.  Their median is the
        # issue's definition of host_ops_per_s; their spread is
        # bench.host_iqr_frac.
        "host_ops_per_s_repeats": repeat_ops_per_s(workload.kind, children),
    }
    if traced:
        dump = str(out_dir() / f"spans-{name}.jsonl") if dump_spans else None
        traced_child = spawn(name, seed, scale, "traced", dump)
        ladder = spawn(name, seed, scale, "ladder") if name == "serve_flat" else None
        layers = per_layer(name, traced_child, children, ladder, smoke)
        layers[metrics.HOST_IQR] = metrics.iqr_frac(entry["host_ops_per_s_repeats"])
        for metric in metrics.END_TO_END:
            if metric.source != "timed":
                entry["end_to_end"][metric.name] = layers.pop(metric.name)
        entry["per_layer"] = layers
        entry["trace"] = {k: traced_child["trace"][k] for k in ("spans", "hook_calls")}
        if ladder:
            entry["rate_ladder"] = ladder["rungs"]
    entry["null_reasons"] = {
        metric: null_reason(metric, name)
        for section in ("end_to_end", "per_layer")
        for metric, value in entry.get(section, {}).items()
        if value is None
    }
    # ``failed`` also counts the requests a fleet refused, which a crash
    # plan makes it do; ``correct`` is about outputs.  A fleet that lost a
    # request or an acknowledged write never gets here.
    entry["correct"] = not entry["mismatches"]
    return entry


# -- the command forms ------------------------------------------------------------


def contract_run(args: argparse.Namespace) -> int:
    """``--workload --seed --seconds --trace``: BENCHMARK.json's form."""
    declared = metrics.declaration()
    scale = args.seconds / RUN_SECONDS
    traced = bool(args.trace)
    entry = measure([args.workload], args.seed, scale, timed=not traced,
                    traced=traced)[args.workload]
    section = "per_layer" if traced else "end_to_end"
    values = dict(entry["end_to_end"], **entry.get("per_layer", {}))
    reported = {
        # A metric the workload does not have reads 0 here; the full
        # report says null and why.
        m["name"]: {"value": 0.0 if values[m["name"]] is None else values[m["name"]],
                    "unit": m["unit"]}
        for m in declared[section]
    }
    for metric_name, value in reported.items():
        print(f"{args.workload:12s} {metric_name:32s} {value['value']!r} {value['unit']}")
    print(f"{args.workload:12s} repeats={entry['repeats']} "
          f"host_ops_per_s_repeats={entry['host_ops_per_s_repeats']} "
          f"discarded={entry['repeats_discarded']}")
    print(json.dumps({
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": reported,
    }))
    return 0


def code_sha256() -> str:
    """Identity of the code a report measured: the package and this benchmark.

    ``compare`` holds two reports with the same value to identical
    simulated numbers.  Content, not a commit id, so an uncommitted edit
    counts and a checkout without git history still has one.
    """
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def full_run(args: argparse.Namespace) -> int:
    """Every workload (or ``--workload``), printed and written as one report."""
    scale = 1.0 / QUICK_DIVISOR if args.quick else 1.0
    names = [args.workload] if args.workload else list(WORKLOADS)
    units = {m.name: m.unit for m in metrics.END_TO_END}
    units.update({name: unit for name, unit, _ in metrics.PER_LAYER})
    units[metrics.HOST_IQR] = "ratio"
    report = {
        "schema": 1,
        "seed": args.seed,
        "scale": scale,
        "code_sha256": code_sha256(),
        "protocol": "identical repeats, each a fresh single-threaded child with "
        "PYTHONHASHSEED=0; host wall = sum over timed pieces of the fastest repeat "
        "of that piece, setup_s and host_peak_rss_mb = medians, bench.host_iqr_frac = "
        "inter-quartile range of the whole repeats' ops/s over their median; engine "
        "workloads exclude a 20 % warm-up, fleets start cold and the whole run is measured",
        "interactions": INTERACTIONS,
        "workloads": {},
    }
    report["workloads"] = measure(names, args.seed, scale, smoke=args.quick,
                                  dump_spans=args.dump_spans)
    for name, entry in report["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric_name, value in entry[section].items():
                shown = "null" if value is None else repr(value)
                print(f"{name:12s} {metric_name:32s} {shown} {units[metric_name]}")
        print(f"{name:12s} correct={entry['correct']} failed={entry['failed']}/"
              f"{entry['attempted']} discarded_repeats={entry['repeats_discarded']} "
              f"median_repeat_ops_per_s={statistics.median(entry['host_ops_per_s_repeats'])!r} "
              f"fingerprint={entry['sim_fingerprint'][:16]}")
    path = Path(args.json) if args.json else out_dir() / f"report-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"report written to {path}")
    return 0 if all(entry["correct"] for entry in report["workloads"].values()) else 1


def out_dir() -> Path:
    path = HERE / "out"
    path.mkdir(exist_ok=True)
    return path


#: Which end-to-end metric each layer metric should move, on which
#: workload, and where it should not — written down before measuring.
INTERACTIONS = [
    {"layer": ["host.frac.lsm.bloom", "host.frac.lsm.tree", "host.frac.lsm.storage"],
     "moves": ["host_ops_per_s"], "on": ["point_cold", "batch_mixed"],
     "not_on": ["point_fit", "any sim_* anywhere"]},
    {"layer": ["host.frac.cache.range", "host.frac.cache.sketch", "host.frac.core.engine"],
     "moves": ["host_ops_per_s"], "on": ["point_fit", "scan_cold"], "not_on": []},
    {"layer": ["host.frac.lsm.compaction", "host.frac.lsm.wal"],
     "moves": ["host_ops_per_s"], "on": ["mixed_write", "serve_full"],
     "not_on": ["point_fit", "point_cold", "scan_cold"]},
    {"layer": ["host.frac.serve.loop", "host.frac.serve.router",
               "host.frac.bench.simclock", "serve.loop.host_us_per_event"],
     "moves": ["host_ops_per_s"], "on": ["serve_flat"], "not_on": ["engine workloads"]},
    {"layer": ["host.frac.serve.resilience", "host.frac.cache.tier2", "host.frac.obs"],
     "moves": ["host_ops_per_s"], "on": ["serve_full"],
     "not_on": ["serve_flat (must be 0 there)"]},
    {"layer": ["cache.block.hit_rate", "cache.range.hit_rate", "cache.range.admit_ratio",
               "core.controller.range_ratio_end"],
     "moves": ["sim_hit_rate", "sim_io_per_op", "sim_qps"],
     "on": ["point_cold", "scan_cold", "mixed_write"], "not_on": ["point_fit (already ~1)"]},
    {"layer": ["sim.cost.disk"], "moves": ["sim_qps", "sim_p99_us"],
     "on": ["every cold workload"], "not_on": []},
    {"layer": ["sim.cost.range_insert", "sim.cost.scan_entry"], "moves": ["sim_qps"],
     "on": ["scan_cold"], "not_on": ["point_fit", "point_cold"]},
    {"layer": ["lsm.compaction.entries", "sim.cost.compaction", "sim.cost.slowdown",
               "cache.block.invalidations"],
     "moves": ["sim_write_amp", "sim_p99_us"], "on": ["mixed_write"],
     "not_on": ["read-only workloads"]},
    {"layer": ["cache.tier2.hit_rate", "cache.tier2.admits", "cache.tier2.rejects",
               "sim.cost.l2"],
     "moves": ["sim_io_per_op", "sim_p99_us"], "on": ["serve_full"], "not_on": ["serve_flat"]},
    {"layer": ["serve.queue_wait_p99_us", "serve.shard_busy_max_frac", "serve.shed.*"],
     "moves": ["sim_p99_us", "failed_frac", "sim_max_rate_ok"], "on": ["serve_flat"],
     "not_on": []},
    {"layer": ["lsm.storage.block_reads (batch_mixed against a scalar replay)"],
     "moves": ["sim_io_per_op"], "on": ["batch_mixed"], "not_on": ["scalar workloads"]},
]


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    if argv == ["declare"]:
        print(json.dumps(metrics.declaration(), indent=1))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="BENCHMARK.json form: 0 = end-to-end run, 1 = per-layer run")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="BENCHMARK.json form only: op counts scale with SECONDS / %d"
                        % RUN_SECONDS)
    parser.add_argument("--json", metavar="OUT", help="report path (default out/)")
    parser.add_argument("--quick", action="store_true",
                        help="op counts / %d and %d repeats: a smoke run, not a "
                        "measurement" % (QUICK_DIVISOR, SMOKE_REPEATS))
    parser.add_argument("--dump-spans", action="store_true",
                        help="also write the traced children's raw spans under out/")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    try:
        if args.trace is not None:
            if not args.workload or args.quick or args.json or args.dump_spans:
                parser.error("--trace takes --workload, --seed and --seconds only")
            return contract_run(args)
        if args.seconds != RUN_SECONDS:
            parser.error("--seconds belongs to the --trace form; a report runs the frozen sizes")
        return full_run(args)
    except SelfCheckError as exc:
        print(f"run.py: self-check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
