"""Scenario-scripted serving runs: phases, conservation, determinism."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serve import ScriptedSession, ServeConfig, TenantConfig, run_serve
from repro.serve.session import PhaseSlot
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.scenarios import (
    ScenarioParams,
    build_scenario,
    scenario_names,
)

TINY = ScenarioParams(
    num_keys=600, tenants=2, phase_ops=80, arrival_rate_ops_s=4000.0, seed=5
)


def _run(name, **overrides):
    kwargs = dict(
        schedule=build_scenario(name, TINY),
        num_shards=2,
        seed=9,
        cache_bytes=64 * 1024,
        window_size=100,
        rebalance_every=300,
        keep_trace=True,
    )
    kwargs.update(overrides)
    return run_serve(ServeConfig(**kwargs))


class TestConfigAdoption:
    def test_schedule_defines_population_and_budget(self):
        schedule = build_scenario("diurnal", TINY)
        config = ServeConfig(schedule=schedule, num_shards=2)
        assert config.num_clients == len(schedule.tenant_names)
        assert config.total_ops == schedule.total_ops
        assert config.num_keys == schedule.num_keys
        assert config.arrival_rate_ops_s == schedule.arrival_rate_ops_s

    def test_workload_and_schedule_exclusive(self):
        schedule = build_scenario("diurnal", TINY)
        spec = WorkloadSpec(num_keys=100, get_ratio=1.0)
        with pytest.raises(ConfigError, match="mutually exclusive"):
            ServeConfig(schedule=schedule, workload=spec)

    def test_closed_clients_rejected(self):
        schedule = build_scenario("diurnal", TINY)
        with pytest.raises(ConfigError, match="open-loop only"):
            ServeConfig(schedule=schedule, closed_clients=1)


class TestScriptedRuns:
    @pytest.mark.parametrize("name", scenario_names())
    def test_deterministic_per_scenario(self, name):
        a = _run(name, keep_trace=False)
        b = _run(name, keep_trace=False)
        assert a.fingerprint() == b.fingerprint()

    def test_conservation_and_budget_drain(self):
        result = _run("flash_crowd")
        schedule = build_scenario("flash_crowd", TINY)
        assert result.issued == result.completed + result.rejected
        # The whole budget enters the system (phases are sized so the
        # offered load drains them with margin).
        assert result.issued >= 0.95 * schedule.total_ops

    def test_phase_markers_in_trace(self):
        result = _run("scan_storm")
        phases = [line for line in result.trace if " phase " in line]
        schedule = build_scenario("scan_storm", TINY)
        assert len(phases) == len(schedule.phases)
        # Marker text carries the phase index and name in order.
        for idx, (line, phase) in enumerate(zip(phases, schedule.phases)):
            assert f"phase {idx} {phase.name}" in line

    def test_dormant_tenant_issues_nothing_before_arrival(self):
        result = _run("tenant_churn")
        schedule = build_scenario("tenant_churn", TINY)
        last = schedule.tenant_names[-1]
        starts = schedule.phase_starts()
        arrival_us = starts[len(schedule.tenant_names) - 1]
        for line in result.trace:
            ts, kind, *fields = line.split(" ")
            if kind == "arrive" and fields[1] == last:
                assert float(ts) >= arrival_us
                break
        else:
            pytest.fail("late tenant never issued")

    def test_keyspace_growth_preloads_prefix_only(self):
        result = _run("keyspace_growth")
        schedule = build_scenario("keyspace_growth", TINY)
        preloaded = sum(
            s.keys_owned for s in result.shards
        )  # router owns the full range
        assert preloaded == schedule.num_keys
        # But the trees only bulk-loaded the preload prefix: the fleet
        # serves the run without ever having seen the upper two thirds.
        assert result.completed > 0

    def test_obs_phase_counters(self):
        from repro.obs import names as N

        result = _run("write_flood", obs=True, keep_trace=False)
        schedule = build_scenario("write_flood", TINY)
        transitions = sum(
            w.counters.get(N.SERVE_PHASE_TRANSITIONS, 0)
            for w in result.obs_fleet_windows
        )
        assert transitions == len(schedule.phases)
        kinds = {
            e.kind
            for r in result.obs_recorders
            for e in r.trace.events()
        }
        assert N.EV_PHASE in kinds


class TestScriptedSession:
    def _slot(self, start, end, ops, scale=1.0, num_keys=50):
        stream = None
        if ops:
            spec = WorkloadSpec(num_keys=num_keys, get_ratio=1.0)
            stream = WorkloadGenerator(spec, seed=1).ops(ops)
        return PhaseSlot(start, end, ops, scale, stream)

    def _session(self, slots):
        tenant = TenantConfig(name="t0", ops=sum(s.ops_left for s in slots) or 1)
        return ScriptedSession(tenant, slots, seed=3)

    def test_poll_walks_phases(self):
        session = self._session(
            [self._slot(0.0, 100.0, 2), self._slot(100.0, 200.0, 0)]
        )
        ops, _ = session.arrivals(0.0, 1)
        assert len(ops) == 1
        ops, _ = session.arrivals(50.0, 1)
        assert len(ops) == 1
        # Budget drained: sleep to the phase end, then the dormant
        # phase sleeps to its own end, then the script is done.
        assert session.arrivals(60.0, 1) == ([], 100.0)
        assert session.arrivals(150.0, 1) == ([], 200.0)
        assert session.arrivals(200.0, 1) == ([], None)
        assert session.issued == 2

    def test_sleep_targets_are_in_the_future(self):
        session = self._session([self._slot(100.0, 200.0, 1)])
        assert session.arrivals(0.0, 1) == ([], 100.0)

    def test_rate_scale_shortens_delays(self):
        fast = self._session([self._slot(0.0, 1e9, 1000, scale=8.0)])
        slow = self._session([self._slot(0.0, 1e9, 1000, scale=1.0)])
        n = 500
        mean_fast = sum(fast.next_delay_us() for _ in range(n)) / n
        mean_slow = sum(slow.next_delay_us() for _ in range(n)) / n
        assert mean_fast < mean_slow / 4

    def test_closed_mode_rejected(self):
        tenant = TenantConfig(name="t0", ops=1, mode="closed")
        with pytest.raises(ConfigError, match="open-loop only"):
            ScriptedSession(tenant, [self._slot(0.0, 1.0, 1)], seed=0)

    def test_empty_script_rejected(self):
        tenant = TenantConfig(name="t0", ops=1)
        with pytest.raises(ConfigError, match="empty phase script"):
            ScriptedSession(tenant, [], seed=0)
