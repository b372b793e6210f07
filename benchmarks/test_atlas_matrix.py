"""Scenario-atlas experiment: the full scenarios × strategies matrix.

Runs every registered scenario against the four headline strategies at
experiment scale (larger keyspaces and budgets than the unit-test
sweep), with the double-run fingerprint gate on in every cell.  This is
the evaluation the dynamic-workload papers (RusKey, ArceKV) lead with,
pointed at the serving fleet instead of a single engine.

The claims under test:

* every cell of the matrix is bit-for-bit reproducible (double runs
  agree), even under adversarial phase schedules — flash crowds, scan
  storms, write floods, tenant churn, key-space growth;
* request conservation holds in every cell;
* every scenario crosses all of its phase boundaries (the obs phase
  counter equals the schedule's phase count);
* the adaptive controller beats the learned-eviction baselines
  (range-lecar, range-cacheus) on simulated I/O per op in more
  scenarios than it loses.  (At this scaled-down fleet geometry the
  plain block cache wins most scenarios outright, and the matrix
  reports that.  Footprint is not the reason: a range entry is charged
  24 B key + 1 000 B value = 1 024 B, and a 4 096 B block holds
  ``entries_per_block`` = 4 entries, also 1 024 B per entry.  Why
  blocks win 6 of 7 cells is still unexplained.)
"""

from __future__ import annotations

import pytest

from common import print_banner, scaled
from repro.workloads.atlas import AtlasConfig, run_atlas
from repro.workloads.scenarios import build_scenario

CONFIG = AtlasConfig(
    strategies=("adcache", "range-lecar", "range-cacheus", "block"),
    seed=0,
    num_keys=3000,
    tenants=4,
    phase_ops=max(200, scaled(800)),
    arrival_rate_ops_s=2000.0,
    num_shards=2,
    cache_kb=256,
    window_size=250,
    rebalance_every=1000,
    double_run=True,
)


@pytest.mark.slow
def test_atlas_matrix(run_once):
    result = run_once(run_atlas, CONFIG)

    print_banner(
        f"Scenario atlas — {len(CONFIG.scenarios)} scenarios x "
        f"{len(CONFIG.strategies)} strategies, seed {CONFIG.seed}, "
        f"double-run fingerprint gate"
    )
    print(result.to_markdown())

    # Every cell reproduced bit for bit and conserved its requests.
    assert result.deterministic, [
        (c.scenario, c.strategy) for c in result.failures()
    ]
    params = CONFIG.scenario_params()
    for cell in result.cells:
        assert cell.issued == cell.completed + cell.rejected
        schedule = build_scenario(cell.scenario, params)
        assert cell.phase_transitions == len(schedule.phases)
        assert cell.issued >= 0.9 * schedule.total_ops

    # One winner per scenario.
    assert sum(result.wins.values()) == len(CONFIG.scenarios)

    # Head-to-head against the learned baselines, adcache wins more
    # scenarios than it loses on simulated I/O per op.
    io = {(c.scenario, c.strategy): c.io_per_op for c in result.cells}
    wins = losses = 0
    for scenario in CONFIG.scenarios:
        for baseline in ("range-lecar", "range-cacheus"):
            if io[(scenario, "adcache")] < io[(scenario, baseline)]:
                wins += 1
            elif io[(scenario, "adcache")] > io[(scenario, baseline)]:
                losses += 1
    print(f"adcache vs learned baselines: {wins} wins, {losses} losses")
    assert wins > losses
