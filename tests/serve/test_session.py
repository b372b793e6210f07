"""Client sessions: op streams, timing draws, and config validation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serve.session import ClientSession, TenantConfig
from repro.workloads.generator import WorkloadGenerator, balanced_workload


def _session(mode="open", ops=50, seed=1, **kw):
    config = TenantConfig(name="t0", ops=ops, mode=mode, **kw)
    generator = WorkloadGenerator(balanced_workload(500), seed=seed)
    return ClientSession(config, generator.ops(ops), seed=seed)


class TestTenantConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TenantConfig(name="x", ops=0)
        with pytest.raises(ConfigError):
            TenantConfig(name="x", ops=1, mode="half-open")
        with pytest.raises(ConfigError):
            TenantConfig(name="x", ops=1, mode="open", arrival_rate_ops_s=0)
        with pytest.raises(ConfigError):
            TenantConfig(name="x", ops=1, mode="closed", think_time_us=-1)


class TestSession:
    def test_stream_yields_exactly_ops(self):
        session = _session(ops=25)
        count = 0
        while session.next_operation() is not None:
            count += 1
        assert count == 25
        assert session.issued == 25
        assert session.next_operation() is None

    def test_open_loop_interarrivals_match_rate(self):
        session = _session(mode="open", ops=1, arrival_rate_ops_s=1000.0)
        draws = [session.next_delay_us() for _ in range(4000)]
        assert all(d >= 0 for d in draws)
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(1000.0, rel=0.1)  # 1/rate = 1000 us

    def test_closed_loop_think_time(self):
        session = _session(mode="closed", ops=1, think_time_us=500.0)
        draws = [session.next_delay_us() for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(500.0, rel=0.1)

    def test_zero_think_time_is_zero(self):
        session = _session(mode="closed", ops=1, think_time_us=0.0)
        assert session.next_delay_us() == 0.0

    def test_same_seed_same_draws(self):
        a = _session(seed=9)
        b = _session(seed=9)
        assert [a.next_delay_us() for _ in range(10)] == [
            b.next_delay_us() for _ in range(10)
        ]
        assert [a.next_operation() for _ in range(10)] == [
            b.next_operation() for _ in range(10)
        ]
