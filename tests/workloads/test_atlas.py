"""Atlas matrix runner: outcomes, scoring, rendering, determinism gate."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.workloads.atlas import (
    AtlasConfig,
    experiments_section,
    run_atlas,
)

#: One shared tiny sweep (2 scenarios × 2 strategies, double-run) so the
#: suite pays for the simulator once.
TINY = AtlasConfig(
    scenarios=("flash_crowd", "scan_storm"),
    strategies=("adcache", "block"),
    seed=4,
    num_keys=500,
    tenants=2,
    phase_ops=60,
    arrival_rate_ops_s=4000.0,
    cache_kb=64,
    window_size=100,
    rebalance_every=300,
)


@pytest.fixture(scope="module")
def tiny_result():
    lines = []
    result = run_atlas(TINY, progress=lines.append)
    assert len(lines) == 4
    return result


class TestConfig:
    def test_defaults_cover_registry(self):
        config = AtlasConfig()
        assert len(config.scenarios) >= 6
        assert len(config.strategies) == 4

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            AtlasConfig(scenarios=("nope",))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            AtlasConfig(strategies=("nope",))


class TestMatrix:
    def test_every_cell_ran_and_verified(self, tiny_result):
        assert len(tiny_result.cells) == 4
        assert tiny_result.deterministic
        assert tiny_result.failures() == []
        for cell in tiny_result.cells:
            assert cell.issued > 0
            assert cell.issued == cell.completed + cell.rejected
            assert 0.0 <= cell.hit_rate <= 1.0
            assert cell.io_per_op >= 0.0
            assert len(cell.fingerprint) == 64
            assert cell.phase_transitions >= 5

    def test_winner_per_scenario(self, tiny_result):
        assert set(tiny_result.winners) == set(TINY.scenarios)
        for winner in tiny_result.winners.values():
            assert winner in TINY.strategies
        assert sum(tiny_result.wins.values()) == len(TINY.scenarios)

    def test_winner_has_lowest_io(self, tiny_result):
        for scenario, winner in tiny_result.winners.items():
            cells = [c for c in tiny_result.cells if c.scenario == scenario]
            best = min(c.io_per_op for c in cells)
            won = next(c for c in cells if c.strategy == winner)
            assert won.io_per_op == best

    def test_kv_cell_reports_its_hits(self):
        # KV hits count in the same unit as block and range hits.
        config = dataclasses.replace(
            TINY, scenarios=("zipf_drift",), strategies=("kv",), double_run=False
        )
        (cell,) = run_atlas(config).cells
        assert cell.hit_rate > 0.0

    def test_reruns_identically(self, tiny_result):
        again = run_atlas(TINY)
        assert [c.fingerprint for c in again.cells] == [
            c.fingerprint for c in tiny_result.cells
        ]


class TestRendering:
    def test_json_is_machine_readable(self, tiny_result):
        doc = json.loads(tiny_result.to_json())
        assert doc["deterministic"] is True
        assert doc["scenarios"] == list(TINY.scenarios)
        assert len(doc["cells"]) == 4
        cell = doc["cells"][0]
        for key in ("scenario", "strategy", "fingerprint", "hit_rate",
                    "io_per_op", "p99_us"):
            assert key in cell

    def test_markdown_report(self, tiny_result):
        text = tiny_result.to_markdown()
        assert "**verified**" in text
        for scenario in TINY.scenarios:
            assert scenario in text
        for strategy in TINY.strategies:
            assert strategy in text
        assert "Wins (lowest simulated I/O per op)" in text

    def test_experiments_section_appends(self, tiny_result, tmp_path):
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text("# Experiments\n")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(experiments_section(tiny_result))
        text = path.read_text()
        assert text.startswith("# Experiments")
        assert "## Scenario atlas" in text
        assert "flash_crowd" in text
