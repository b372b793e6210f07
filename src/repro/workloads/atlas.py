"""The scenarios × strategies atlas: the matrix runner over the registry.

Sweeps every scenario in :mod:`repro.workloads.scenarios` against a set
of cache strategies through the serving simulator, one cell per
(scenario, strategy) pair.  Each cell:

* builds the scenario schedule fresh (schedules are pure functions of
  their params, so this is free determinism insurance),
* runs the fleet with observability on and collects the estimated hit
  rate, simulated I/O per op, and tail latency from the fleet window,
* **double-runs** and asserts bit-for-bit fleet fingerprint equality —
  a failed cell is a determinism regression, reported and fatal.

The result renders three ways: a machine-readable JSON dict, a markdown
win/loss report (winner per scenario by lowest I/O per op, tie-broken
by p99), and an EXPERIMENTS.md-appendable section.

Lives in :mod:`repro.workloads` for discoverability but is deliberately
**not** re-exported from the package ``__init__`` — it imports
:mod:`repro.serve`, which imports ``repro.workloads``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.strategies import STRATEGIES
from repro.errors import ConfigError
from repro.obs import names as N
from repro.rl.reward import h_estimate
from repro.serve.result import ServeResult
from repro.serve.simulator import ServeConfig, run_serve
from repro.workloads.scenarios import (
    ScenarioParams,
    ScenarioSchedule,
    build_scenario,
    scenario_names,
)

#: The default strategy axis: the paper's controller against the two
#: learned baselines and the static split.
DEFAULT_STRATEGIES = ("adcache", "range-lecar", "range-cacheus", "block")

#: Strategy-name suffix selecting the tiered fleet: ``block+l2`` runs the
#: ``block`` engines with ``l2_fraction`` of the (same total) cache
#: budget carved into the fleet-shared second tier.
L2_SUFFIX = "+l2"


def split_strategy(name: str) -> Tuple[str, bool]:
    """``(base_strategy, tiered?)`` for an atlas strategy axis name."""
    if name.endswith(L2_SUFFIX):
        return name[: -len(L2_SUFFIX)], True
    return name, False


#: Per-shard request queue bound of every atlas cell.
QUEUE_DEPTH = 64


@dataclass
class AtlasConfig:
    """One atlas sweep: which cells to run, and at what scale."""

    scenarios: Tuple[str, ...] = ()  # empty = every registered scenario
    strategies: Tuple[str, ...] = DEFAULT_STRATEGIES
    seed: int = 0
    num_keys: int = 3000
    tenants: int = 4
    phase_ops: int = 800
    arrival_rate_ops_s: float = 2000.0
    num_shards: int = 2
    cache_kb: int = 256
    #: Budget fraction ``+l2`` cells carve into the shared tier; the
    #: total stays ``cache_kb`` so tiered-vs-flat is at equal budget.
    l2_fraction: float = 0.25
    window_size: int = 250
    rebalance_every: int = 1000
    #: Re-run every cell and require identical fleet fingerprints.
    double_run: bool = True

    def __post_init__(self) -> None:
        if not self.scenarios:
            self.scenarios = tuple(scenario_names())
        for name in self.scenarios:
            if name not in scenario_names():
                raise ConfigError(
                    f"unknown scenario {name!r}; choose from "
                    f"{scenario_names()}"
                )
        if not self.strategies:
            raise ConfigError("atlas needs >= 1 strategy")
        for strategy in self.strategies:
            base, _ = split_strategy(strategy)
            if base not in STRATEGIES:
                raise ConfigError(
                    f"unknown strategy {strategy!r}; choose from "
                    f"{sorted(STRATEGIES)} (optionally with '{L2_SUFFIX}')"
                )
        if self.cache_kb <= 0:
            raise ConfigError(f"cache_kb must be positive, got {self.cache_kb}")
        if not 0.0 < self.l2_fraction < 1.0:
            raise ConfigError(
                f"l2_fraction must lie in (0, 1), got {self.l2_fraction}"
            )

    def scenario_params(self) -> ScenarioParams:
        """The shared scenario knobs for this sweep."""
        return ScenarioParams(
            num_keys=self.num_keys,
            tenants=self.tenants,
            phase_ops=self.phase_ops,
            arrival_rate_ops_s=self.arrival_rate_ops_s,
            seed=self.seed,
        )

    def serve_config(self, schedule: ScenarioSchedule, strategy: str) -> ServeConfig:
        """The serving config for one cell (``+l2`` names go tiered)."""
        base, tiered = split_strategy(strategy)
        cache_bytes = self.cache_kb * 1024
        return ServeConfig(
            schedule=schedule,
            strategy=base,
            num_shards=self.num_shards,
            seed=self.seed,
            cache_bytes=cache_bytes,
            l2_budget_bytes=int(cache_bytes * self.l2_fraction) if tiered else 0,
            queue_depth=QUEUE_DEPTH,
            window_size=self.window_size,
            rebalance_every=self.rebalance_every,
            keep_trace=False,
            obs=True,
        )


@dataclass
class CellOutcome:
    """One (scenario, strategy) cell's measured outcome."""

    scenario: str
    strategy: str
    fingerprint: str
    deterministic: bool
    issued: int
    completed: int
    rejected: int
    hit_rate: float
    io_per_op: float
    p50_us: float
    p99_us: float
    throughput_qps: float
    phase_transitions: int


@dataclass
class AtlasResult:
    """The full matrix plus the per-scenario verdicts."""

    config: AtlasConfig
    cells: List[CellOutcome]
    #: scenario -> winning strategy (lowest I/O per op, then p99, name).
    winners: Dict[str, str] = field(default_factory=dict)
    #: strategy -> scenarios won.
    wins: Dict[str, int] = field(default_factory=dict)

    @property
    def deterministic(self) -> bool:
        """Whether every double-run cell matched bit for bit."""
        return all(c.deterministic for c in self.cells)

    def failures(self) -> List[CellOutcome]:
        """Cells whose double run diverged (always empty on healthy runs)."""
        return [c for c in self.cells if not c.deterministic]

    def to_json_dict(self) -> Dict[str, object]:
        """Machine-readable matrix (stable key order when dumped sorted)."""
        return {
            "scenarios": list(self.config.scenarios),
            "strategies": list(self.config.strategies),
            "seed": self.config.seed,
            "deterministic": self.deterministic,
            "winners": dict(self.winners),
            "wins": dict(self.wins),
            "cells": [
                {
                    "scenario": c.scenario,
                    "strategy": c.strategy,
                    "fingerprint": c.fingerprint,
                    "deterministic": c.deterministic,
                    "issued": c.issued,
                    "completed": c.completed,
                    "rejected": c.rejected,
                    "hit_rate": round(c.hit_rate, 6),
                    "io_per_op": round(c.io_per_op, 6),
                    "p50_us": round(c.p50_us, 3),
                    "p99_us": round(c.p99_us, 3),
                    "throughput_qps": round(c.throughput_qps, 3),
                    "phase_transitions": c.phase_transitions,
                }
                for c in self.cells
            ],
        }

    def to_json(self) -> str:
        """Stable JSON rendering of :meth:`to_json_dict`."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        """Win/loss report: one matrix table plus the per-cell metrics."""
        lines = [
            "### Scenario atlas: scenarios × strategies",
            "",
            f"seed {self.config.seed} · {self.config.tenants} tenants · "
            f"{self.config.num_keys} keys · {self.config.cache_kb} KB fleet "
            f"cache · {self.config.num_shards} shards · "
            f"double-run fingerprints "
            + ("**verified**" if self.deterministic else "**DIVERGED**"),
            "",
            "| scenario | " + " | ".join(self.config.strategies) + " | winner |",
            "|---|" + "---|" * (len(self.config.strategies) + 1),
        ]
        by_cell = {(c.scenario, c.strategy): c for c in self.cells}
        for scenario in self.config.scenarios:
            row = [scenario]
            for strategy in self.config.strategies:
                cell = by_cell[(scenario, strategy)]
                mark = "**" if self.winners.get(scenario) == strategy else ""
                row.append(
                    f"{mark}{cell.io_per_op:.3f} io/op · "
                    f"{cell.hit_rate:.1%}{mark}"
                )
            row.append(self.winners.get(scenario, "-"))
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
        tally = " · ".join(
            f"{s}: {self.wins.get(s, 0)}" for s in self.config.strategies
        )
        lines.append(f"Wins (lowest simulated I/O per op): {tally}")
        lines.append("")
        lines.append(
            "| scenario | strategy | issued | shed | p50 us | p99 us | qps |"
        )
        lines.append("|---|---|---|---|---|---|---|")
        for c in self.cells:
            lines.append(
                f"| {c.scenario} | {c.strategy} | {c.issued} | {c.rejected} "
                f"| {c.p50_us:,.0f} | {c.p99_us:,.0f} "
                f"| {c.throughput_qps:,.0f} |"
            )
        lines.append("")
        return "\n".join(lines)


def _outcome(
    scenario: str, strategy: str, result: ServeResult, deterministic: bool
) -> CellOutcome:
    """Fold one serve run into a cell.

    The hit rate is the paper's estimated one (:func:`~repro.rl.reward.h_estimate`
    over the fleet window), so it counts block, range and KV hits in one
    unit: disk reads a cacheless store would have paid that no shard did.
    """
    w = result.fleet_window
    options = result.config.lsm_options()
    hit_rate, _ = h_estimate(
        w.points,
        w.scans,
        w.scan_length_sum,
        w.io_miss,
        options.entries_per_block,
        w.num_levels,
        options.level0_stop_writes_trigger,
    )
    return CellOutcome(
        scenario=scenario,
        strategy=strategy,
        fingerprint=result.fingerprint(),
        deterministic=deterministic,
        issued=result.issued,
        completed=result.completed,
        rejected=result.rejected,
        hit_rate=hit_rate,
        io_per_op=w.io_miss / w.ops if w.ops else 0.0,
        p50_us=result.latency.p50,
        p99_us=result.latency.p99,
        throughput_qps=result.throughput_qps,
        phase_transitions=sum(
            snap.counters.get(N.SERVE_PHASE_TRANSITIONS, 0)
            for snap in result.obs_fleet_windows
        ),
    )


def run_atlas(
    config: AtlasConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> AtlasResult:
    """Run the full matrix; ``progress`` gets one line per finished cell."""
    params = config.scenario_params()
    cells: List[CellOutcome] = []
    for scenario in config.scenarios:
        for strategy in config.strategies:
            # Fresh schedule per cell: schedules are cheap and pure,
            # and a run must not be able to perturb its sibling cells.
            schedule = build_scenario(scenario, params)
            result = run_serve(config.serve_config(schedule, strategy))
            deterministic = True
            if config.double_run:
                again = run_serve(
                    config.serve_config(build_scenario(scenario, params), strategy)
                )
                deterministic = result.fingerprint() == again.fingerprint()
            cell = _outcome(scenario, strategy, result, deterministic)
            cells.append(cell)
            if progress is not None:
                verdict = "ok" if deterministic else "FINGERPRINT MISMATCH"
                progress(
                    f"{scenario} x {strategy}: io/op={cell.io_per_op:.3f} "
                    f"hit={cell.hit_rate:.1%} p99={cell.p99_us:,.0f}us "
                    f"[{verdict}]"
                )
    result_obj = AtlasResult(config=config, cells=cells)
    _score(result_obj)
    return result_obj


def _score(result: AtlasResult) -> None:
    """Pick each scenario's winner and tally wins per strategy."""
    result.wins = {s: 0 for s in result.config.strategies}
    for scenario in result.config.scenarios:
        contenders = [c for c in result.cells if c.scenario == scenario]
        winner = min(
            contenders, key=lambda c: (c.io_per_op, c.p99_us, c.strategy)
        )
        result.winners[scenario] = winner.strategy
        result.wins[winner.strategy] += 1


def experiments_section(result: AtlasResult) -> str:
    """The markdown block ``repro atlas --append-experiments`` writes."""
    return (
        "\n## Scenario atlas (scenarios × strategies)\n\n"
        + result.to_markdown()
    )
