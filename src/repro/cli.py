"""Command-line interface: run workloads against the cache schemes.

Examples
--------
Run one strategy on one workload::

    python -m repro run --strategy adcache --workload balanced \
        --num-keys 10000 --cache-kb 1024 --ops 20000

Compare every scheme on a workload::

    python -m repro compare --workload short_scan --cache-kb 512

Replay the dynamic phase sequence::

    python -m repro phases --phases ABCDEF --ops-per-phase 5000

Chaos-test resilience under injected storage faults::

    python -m repro chaos --ops 20000 --transient-rate 0.01 \
        --corruption-rate 0.001 --crash-every 5000 --blackout-window 20

Chaos-test the serving fleet (shard crashes + replica failover), running
the same seeded scenario twice and demanding identical fingerprints::

    python -m repro chaos --serve --ops 8000 --serve-crashes 2 --seed 11

Simulate a multi-tenant serving fleet (shard router + client sessions)::

    python -m repro serve --clients 8 --shards 4 --ops 20000 --seed 0

Run the repo's static-analysis pass (arguments are those of
``python -m repro.lint``)::

    python -m repro lint src tests

Export observability artifacts and render them::

    python -m repro run --strategy adcache --obs-dir /tmp/obs
    python -m repro report /tmp/obs --validate
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

from repro.bench.harness import run_phases, run_workload, seed_database
from repro.bench.report import format_table
from repro.bench.strategies import DISPLAY_NAMES, STRATEGIES, build_engine
from repro.faults.chaos import report_rows, run_chaos
from repro.lsm.options import LSMOptions
from repro.workloads.dynamic import dynamic_phase_specs
from repro.workloads.generator import (
    WorkloadGenerator,
    WorkloadSpec,
    balanced_workload,
    long_scan_workload,
    point_lookup_workload,
    short_scan_workload,
)

if TYPE_CHECKING:  # the serving fleet is imported only by the commands that run it
    from repro.serve import ServeResult

WORKLOADS = {
    "point": point_lookup_workload,
    "short_scan": short_scan_workload,
    "balanced": balanced_workload,
    "long_scan": long_scan_workload,
}


def _spec(args: argparse.Namespace) -> WorkloadSpec:
    if args.workload in WORKLOADS:
        return WORKLOADS[args.workload](args.num_keys, skew=args.skew)
    raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")


def _options(args: argparse.Namespace) -> LSMOptions:
    return LSMOptions(
        memtable_entries=args.memtable_entries,
        entries_per_sstable=args.sstable_entries,
    )


def _result_row(name: str, result) -> List[str]:
    return [
        name,
        f"{result.hit_rate:.3f}",
        f"{result.sst_reads:,}",
        f"{result.qps:,.0f}",
        f"{result.compactions}",
    ]


_HEADERS = ["strategy", "est. hit rate", "SST reads", "sim QPS", "compactions"]


def _add_obs_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs-dir", default=None,
        help="export observability artifacts (metrics/events/audit JSONL) here",
    )


def _attach_obs(engine, args: argparse.Namespace):
    """Attach an ObsRecorder when ``--obs-dir`` was given (else None)."""
    if not getattr(args, "obs_dir", None):
        return None
    from repro.obs import ObsRecorder

    recorder = ObsRecorder()
    engine.attach_recorder(recorder)
    return recorder


def _export_obs(engine, recorder, args: argparse.Namespace) -> None:
    """Seal the trailing partial window and write the obs artifacts."""
    if recorder is None:
        return
    engine.flush_window()
    recorder.export(args.obs_dir)
    print(f"wrote obs artifacts to {args.obs_dir}")


def cmd_run(args: argparse.Namespace) -> int:
    """Run one strategy on one workload and print its metrics."""
    tree = seed_database(args.num_keys, _options(args), seed=args.seed)
    engine = build_engine(args.strategy, tree, args.cache_kb * 1024, seed=args.seed)
    recorder = _attach_obs(engine, args)
    generator = WorkloadGenerator(_spec(args), seed=args.seed + 1)
    result = run_workload(
        engine, generator, num_ops=args.ops, warmup_ops=args.warmup,
        name=args.strategy,
    )
    print(format_table(_HEADERS, [_result_row(DISPLAY_NAMES[args.strategy], result)]))
    _export_obs(engine, recorder, args)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run every main strategy on one workload and rank them."""
    rows = []
    strategies = ["block", "kv", "range", "range-lecar", "range-cacheus", "adcache"]
    for strategy in strategies:
        tree = seed_database(args.num_keys, _options(args), seed=args.seed)
        engine = build_engine(strategy, tree, args.cache_kb * 1024, seed=args.seed)
        generator = WorkloadGenerator(_spec(args), seed=args.seed + 1)
        result = run_workload(
            engine, generator, num_ops=args.ops, warmup_ops=args.warmup,
            name=strategy,
        )
        rows.append((result.hit_rate, _result_row(DISPLAY_NAMES[strategy], result)))
    rows.sort(key=lambda pair: -pair[0])
    print(format_table(_HEADERS, [row for _, row in rows]))
    return 0


def cmd_phases(args: argparse.Namespace) -> int:
    """Run the Table 3 dynamic phases on one strategy."""
    tree = seed_database(args.num_keys, _options(args), seed=args.seed)
    engine = build_engine(args.strategy, tree, args.cache_kb * 1024, seed=args.seed)
    recorder = _attach_obs(engine, args)
    phases = dynamic_phase_specs(args.num_keys, skew=args.skew, phases=args.phases)
    results = run_phases(engine, phases, ops_per_phase=args.ops_per_phase, seed=args.seed + 1)
    print(format_table(
        ["phase"] + _HEADERS[1:],
        [[r.name] + _result_row("", r)[1:] for r in results],
    ))
    _export_obs(engine, recorder, args)
    return 0


def _serve_resilience_config(args: argparse.Namespace):
    """Build the ResilienceConfig the serve/chaos flags describe (or None)."""
    from repro.faults.fleet import FleetFaultConfig
    from repro.serve.resilience import ResilienceConfig

    crashes = getattr(args, "serve_crashes", 0)
    hedge = getattr(args, "hedge_quantile", 0.0)
    timeout = getattr(args, "op_timeout_us", 0.0)
    if not crashes and not hedge and not timeout:
        return None
    faults = None
    if crashes:
        faults = FleetFaultConfig(
            crashes=crashes,
            earliest_us=args.crash_earliest_us,
            latest_us=args.crash_latest_us,
            seed=args.seed,
        )
    return ResilienceConfig(
        fleet_faults=faults,
        hedge_quantile=hedge,
        op_timeout_us=timeout,
    )


def _fleet_failures(result: "ServeResult") -> List[str]:
    """What a fleet run broke: acknowledged writes lost, requests
    neither completed nor rejected, a crash without a promotion."""
    failures = []
    if result.lost_acked_writes:
        failures.append(
            f"{result.lost_acked_writes}/{result.acked_writes_checked} "
            f"acknowledged writes unreadable after failover"
        )
    if result.issued != result.completed + result.rejected:
        failures.append(
            f"request conservation broken: {result.issued} issued != "
            f"{result.completed} completed + {result.rejected} rejected"
        )
    if result.crashes != result.promotions:
        failures.append(
            f"replica promotion missing: {result.crashes} crashes but "
            f"{result.promotions} promotions"
        )
    return failures


def _print_failures(failures: List[str]) -> int:
    """Print each failure as a ``FAIL:`` line; the exit code (1 if any)."""
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def _chaos_serve(args: argparse.Namespace) -> int:
    """Fleet chaos: same seeded crash scenario twice, bytes must match."""
    from repro.faults.fleet import FleetFaultPlan
    from repro.serve import ServeConfig, run_serve

    resilience = _serve_resilience_config(args)
    if resilience is None or resilience.fleet_faults is None:
        raise SystemExit("repro chaos --serve needs --serve-crashes >= 1")

    def one_run():
        return run_serve(ServeConfig(
            num_clients=args.clients,
            num_shards=args.shards,
            total_ops=args.ops,
            seed=args.seed,
            strategy=args.strategy,
            workload=_spec(args),
            num_keys=args.num_keys,
            cache_bytes=args.cache_kb * 1024,
            partition=args.partition,
            queue_depth=args.queue_depth,
            memtable_entries=args.memtable_entries,
            entries_per_sstable=args.sstable_entries,
            keep_trace=False,
            op_deadline_us=args.deadline_us,
            resilience=resilience,
        ))

    first, second = one_run(), one_run()
    print(first.format_report())
    failures = []
    if first.fingerprint() != second.fingerprint():
        failures.append(
            f"fingerprint mismatch across identical seeded runs: "
            f"{first.fingerprint()} != {second.fingerprint()}"
        )
    if first.breaker_log != second.breaker_log:
        failures.append("breaker audit logs diverged across identical runs")
    planned = len(FleetFaultPlan(resilience.fleet_faults, args.shards))
    if first.crashes != planned:
        failures.append(
            f"planned crashes not all executed: {first.crashes} of {planned}"
        )
    if _print_failures(failures + _fleet_failures(first)):
        return 1
    print(
        f"OK: two same-seed fleet-chaos runs matched byte-for-byte "
        f"({first.crashes} crashes, {first.promotions} promotions, "
        f"{first.acked_writes_checked} acked writes verified durable)"
    )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos harness: injected faults must not change results."""
    if args.serve:
        return _chaos_serve(args)
    report = run_chaos(
        ops=args.ops,
        num_keys=args.num_keys,
        cache_kb=args.cache_kb,
        strategy=args.strategy,
        spec=_spec(args),
        options=_options(args),
        transient_read_rate=args.transient_rate,
        corruption_rate=args.corruption_rate,
        torn_wal_rate=args.torn_rate,
        crash_every=args.crash_every,
        blackout_window=args.blackout_window,
        window_size=args.window_size,
        seed=args.seed,
    )
    print(format_table(
        ["metric", "value"],
        [[metric, value] for metric, value in report_rows(report)],
    ))
    if report.wrong_reads:
        if not args.torn_rate:
            print(f"FAIL: {report.wrong_reads} queries diverged from the clean run")
            return 1
        print(
            f"OK: {report.wrong_reads} queries diverged, attributable to "
            f"torn-WAL data loss (sanctioned at --torn-rate > 0)"
        )
        return 0
    print("OK: fault-injected run matched the fault-free run")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the deterministic multi-tenant serving simulation."""
    from repro.serve import ServeConfig, run_serve

    config = ServeConfig(
        num_clients=args.clients,
        num_shards=args.shards,
        total_ops=args.ops,
        seed=args.seed,
        strategy=args.strategy,
        workload=_spec(args),
        num_keys=args.num_keys,
        cache_bytes=args.cache_kb * 1024,
        l2_budget_bytes=args.l2_budget_kb * 1024,
        partition=args.partition,
        queue_depth=args.queue_depth,
        arrival_rate_ops_s=args.arrival_rate,
        closed_clients=args.closed_clients,
        think_time_us=args.think_us,
        rebalance_every=args.rebalance_every,
        window_size=args.window_size,
        memtable_entries=args.memtable_entries,
        entries_per_sstable=args.sstable_entries,
        keep_trace=False,
        op_deadline_us=args.deadline_us,
        resilience=_serve_resilience_config(args),
        obs=bool(args.obs_dir),
    )
    result = run_serve(config)
    print(result.format_report())
    if args.obs_dir:
        result.export_obs(args.obs_dir)
        print(f"wrote per-shard + fleet obs artifacts to {args.obs_dir}")
    return _print_failures(_fleet_failures(result))


def cmd_atlas(args: argparse.Namespace) -> int:
    """Run the scenarios × strategies matrix over the serving fleet."""
    from repro.workloads.atlas import (
        AtlasConfig,
        experiments_section,
        run_atlas,
    )
    from repro.workloads.scenarios import describe_scenarios

    if args.list_scenarios:
        print(describe_scenarios())
        return 0
    config = AtlasConfig(
        scenarios=tuple(args.scenarios.split(",")) if args.scenarios else (),
        strategies=tuple(args.strategies.split(",")),
        seed=args.seed,
        num_keys=args.num_keys,
        tenants=args.tenants,
        phase_ops=args.phase_ops,
        arrival_rate_ops_s=args.arrival_rate,
        num_shards=args.shards,
        cache_kb=args.cache_kb,
        l2_fraction=args.l2_fraction,
        window_size=args.window_size,
        double_run=not args.single_run,
    )
    result = run_atlas(config, progress=print)
    print()
    print(result.to_markdown())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(result.to_json())
        print(f"wrote JSON matrix to {args.json}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(result.to_markdown())
        print(f"wrote markdown report to {args.markdown}")
    if args.append_experiments:
        with open(args.append_experiments, "a", encoding="utf-8") as fh:
            fh.write(experiments_section(result))
        print(f"appended atlas section to {args.append_experiments}")
    failures = result.failures()
    if failures:
        for cell in failures:
            print(
                f"FAIL: {cell.scenario} x {cell.strategy} double run "
                f"diverged (determinism regression)"
            )
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render (and optionally validate) an exported obs directory."""
    from repro.obs.report import list_metrics, render_report
    from repro.obs.schema import validate_export

    if args.list_metrics:
        print(list_metrics())
        return 0
    if not args.directory:
        raise SystemExit("repro report: an obs directory is required")
    if args.validate:
        problems = validate_export(args.directory)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}")
            return 1
        print(f"OK: {args.directory} validates against the obs schema")
    print(render_report(args.directory, max_rows=args.max_rows))
    return 0


def _add_resilience_flags(
    parser: argparse.ArgumentParser, default_crashes: int = 0
) -> None:
    parser.add_argument(
        "--serve-crashes", type=int, default=default_crashes,
        help="shard executors the seeded fleet fault plan kills mid-run "
        "(0 disables crash injection)",
    )
    parser.add_argument(
        "--crash-earliest-us", type=float, default=50_000.0,
        help="earliest simulated crash time (us)",
    )
    parser.add_argument(
        "--crash-latest-us", type=float, default=400_000.0,
        help="latest simulated crash time (us)",
    )
    parser.add_argument(
        "--deadline-us", type=float, default=0.0,
        help="per-op completion deadline; queue waits past it are shed "
        "at dequeue (0 disables)",
    )
    parser.add_argument(
        "--hedge-quantile", type=float, default=0.0,
        help="hedge point reads to the replica past this per-tenant "
        "latency quantile, e.g. 0.95 (0 disables)",
    )
    parser.add_argument(
        "--op-timeout-us", type=float, default=0.0,
        help="service time that counts as a circuit-breaker failure "
        "(0: only crashes trip breakers)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--num-keys", type=int, default=10_000, help="database size in keys")
    parser.add_argument("--cache-kb", type=int, default=1024, help="total cache budget (KiB)")
    parser.add_argument("--skew", type=float, default=0.9, help="Zipfian skew")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--memtable-entries", type=int, default=64)
    parser.add_argument("--sstable-entries", type=int, default=128)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AdCache reproduction: LSM-tree cache management experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one strategy on one workload")
    _add_common(run)
    run.add_argument("--strategy", choices=sorted(STRATEGIES), default="adcache")
    run.add_argument("--workload", choices=sorted(WORKLOADS), default="balanced")
    run.add_argument("--ops", type=int, default=20_000)
    run.add_argument("--warmup", type=int, default=5_000)
    _add_obs_dir(run)
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="compare all schemes on one workload")
    _add_common(compare)
    compare.add_argument("--workload", choices=sorted(WORKLOADS), default="balanced")
    compare.add_argument("--ops", type=int, default=10_000)
    compare.add_argument("--warmup", type=int, default=5_000)
    compare.set_defaults(func=cmd_compare)

    phases = sub.add_parser("phases", help="run the Table 3 dynamic phases")
    _add_common(phases)
    phases.add_argument("--strategy", choices=sorted(STRATEGIES), default="adcache")
    phases.add_argument("--phases", default="ABCDEF")
    phases.add_argument("--ops-per-phase", type=int, default=5_000)
    _add_obs_dir(phases)
    phases.set_defaults(func=cmd_phases)

    chaos = sub.add_parser(
        "chaos", help="verify resilience under injected storage faults"
    )
    _add_common(chaos)
    chaos.add_argument("--strategy", choices=sorted(STRATEGIES), default="adcache")
    chaos.add_argument("--workload", choices=sorted(WORKLOADS), default="balanced")
    chaos.add_argument("--ops", type=int, default=20_000)
    chaos.add_argument(
        "--transient-rate", type=float, default=0.01,
        help="probability a disk read attempt fails transiently",
    )
    chaos.add_argument(
        "--corruption-rate", type=float, default=0.001,
        help="probability a disk read permanently corrupts its block",
    )
    chaos.add_argument(
        "--torn-rate", type=float, default=0.0,
        help="probability a WAL append lands torn (lost at next crash)",
    )
    chaos.add_argument(
        "--crash-every", type=int, default=0,
        help="crash and recover the faulted engine every N ops (0 = never)",
    )
    chaos.add_argument(
        "--blackout-window", type=int, default=None,
        help="poison controller stats for a few windows starting here",
    )
    chaos.add_argument(
        "--window-size", type=int, default=None,
        help="override the controller window (ops) for both engines",
    )
    chaos.add_argument(
        "--serve", action="store_true",
        help="fleet chaos: crash serving shards mid-run, fail over to "
        "replicas, and demand two same-seed runs match byte-for-byte",
    )
    chaos.add_argument("--clients", type=int, default=4, help="(--serve) client sessions")
    chaos.add_argument("--shards", type=int, default=4, help="(--serve) engine shards")
    chaos.add_argument(
        "--partition", choices=["hash", "range"], default="hash",
        help="(--serve) keyspace partitioning across shards",
    )
    chaos.add_argument(
        "--queue-depth", type=int, default=32,
        help="(--serve) bounded per-shard queue capacity",
    )
    _add_resilience_flags(chaos, default_crashes=2)
    chaos.set_defaults(func=cmd_chaos)

    serve = sub.add_parser(
        "serve", help="simulate a deterministic multi-tenant serving fleet"
    )
    _add_common(serve)
    serve.add_argument("--strategy", choices=sorted(STRATEGIES), default="adcache")
    serve.add_argument("--workload", choices=sorted(WORKLOADS), default="balanced")
    serve.add_argument("--clients", type=int, default=8, help="client sessions")
    serve.add_argument("--shards", type=int, default=4, help="engine shards")
    serve.add_argument("--ops", type=int, default=20_000, help="total client ops")
    serve.add_argument(
        "--partition", choices=["hash", "range"], default="hash",
        help="keyspace partitioning across shards",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="bounded per-shard queue capacity (admission budget)",
    )
    serve.add_argument(
        "--arrival-rate", type=float, default=1200.0,
        help="open-loop offered load per client (ops/s)",
    )
    serve.add_argument(
        "--closed-clients", type=int, default=0,
        help="how many clients run closed-loop (think time) instead",
    )
    serve.add_argument(
        "--think-us", type=float, default=1000.0,
        help="closed-loop mean think time (us)",
    )
    serve.add_argument(
        "--rebalance-every", type=int, default=2000,
        help="completed requests between budget-arbiter rounds (0 = off)",
    )
    serve.add_argument(
        "--l2-budget-kb", type=int, default=0,
        help="carve this much of --cache-kb into a fleet-shared L2 tier "
        "(0 = flat legacy fleet; see docs/tiered_cache.md)",
    )
    serve.add_argument(
        "--window-size", type=int, default=250,
        help="per-shard controller window (ops)",
    )
    _add_resilience_flags(serve)
    _add_obs_dir(serve)
    serve.set_defaults(func=cmd_serve)

    atlas = sub.add_parser(
        "atlas",
        help="sweep the scenario atlas against the cache strategies "
        "(see docs/workloads.md)",
    )
    atlas.add_argument(
        "--list-scenarios", action="store_true",
        help="print the registered scenarios with their intents and exit",
    )
    atlas.add_argument(
        "--scenarios",
        help="comma-separated scenario names (default: all registered)",
    )
    atlas.add_argument(
        "--strategies", default="adcache,range-lecar,range-cacheus,block",
        help="comma-separated strategy names",
    )
    atlas.add_argument("--seed", type=int, default=0)
    atlas.add_argument(
        "--num-keys", type=int, default=3000,
        help="base keyspace per scenario (growth scenarios scale it up)",
    )
    atlas.add_argument("--tenants", type=int, default=4)
    atlas.add_argument(
        "--phase-ops", type=int, default=800,
        help="nominal per-tenant op budget per full-intensity phase",
    )
    atlas.add_argument("--arrival-rate", type=float, default=2000.0)
    atlas.add_argument("--shards", type=int, default=2)
    atlas.add_argument("--cache-kb", type=int, default=256)
    atlas.add_argument(
        "--l2-fraction", type=float, default=0.25,
        help="fraction of the cache budget '+l2' strategy cells carve "
        "into the shared tier (total budget stays --cache-kb)",
    )
    atlas.add_argument("--window-size", type=int, default=250)
    atlas.add_argument(
        "--single-run", action="store_true",
        help="skip the double-run fingerprint check (faster, less safe)",
    )
    atlas.add_argument("--json", help="write the machine-readable matrix here")
    atlas.add_argument("--markdown", help="write the win/loss report here")
    atlas.add_argument(
        "--append-experiments", metavar="PATH",
        help="append the atlas section to this markdown file "
        "(e.g. EXPERIMENTS.md)",
    )
    atlas.set_defaults(func=cmd_atlas)

    report = sub.add_parser(
        "report", help="render/validate an exported obs directory"
    )
    report.add_argument(
        "directory", nargs="?", default=None,
        help="directory written by --obs-dir (or a fleet export)",
    )
    report.add_argument(
        "--validate", action="store_true",
        help="check the artifacts against the obs schema first (exit 1 on problems)",
    )
    report.add_argument(
        "--list-metrics", action="store_true",
        help="print the registered metric catalogue and exit",
    )
    report.add_argument(
        "--max-rows", type=int, default=12,
        help="cap per-section table rows in the rendered report",
    )
    report.set_defaults(func=cmd_report)

    # ``repro lint ARGS`` is ``python -m repro.lint ARGS``: the sub-parser
    # declares nothing, so main() hands the unparsed rest to the runner.
    sub.add_parser(
        "lint",
        add_help=False,
        help="run the static-analysis engine (see docs/static_analysis.md)",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.lint.runner import main as lint_main

        return lint_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
