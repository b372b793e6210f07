"""End-to-end serving simulation: conservation, shedding, determinism."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serve import ServeConfig, run_serve

FAST = dict(
    num_clients=4,
    num_shards=2,
    total_ops=1_200,
    num_keys=1_000,
    cache_bytes=128 * 1024,
    window_size=200,
    rebalance_every=400,
    keep_trace=True,
)


def _run(**overrides):
    kwargs = dict(FAST)
    kwargs.update(overrides)
    return run_serve(ServeConfig(**kwargs))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ServeConfig(num_clients=0)
        with pytest.raises(ConfigError):
            ServeConfig(num_shards=0)
        with pytest.raises(ConfigError):
            ServeConfig(num_clients=8, total_ops=4)
        with pytest.raises(ConfigError):
            ServeConfig(closed_clients=99)
        with pytest.raises(ConfigError):
            ServeConfig(window_size=0)


class TestConservation:
    def test_every_issued_request_is_accounted(self):
        result = _run(seed=0)
        assert result.issued == FAST["total_ops"]
        assert result.completed + result.rejected == result.issued
        for tenant in result.tenants:
            assert tenant.completed + tenant.rejected == tenant.issued
            assert tenant.latency.count == tenant.completed
        assert result.latency.count == result.completed
        assert sum(t.issued for t in result.tenants) == result.issued

    def test_subrequest_flow_matches_queue_stats(self):
        result = _run(seed=1)
        served = sum(s.subrequests_served for s in result.shards)
        # Every admitted sub-request was eventually served (queues drain).
        assert result.queue_wait.count == served
        assert served >= result.completed  # scans fan out

    def test_simulated_time_and_throughput(self):
        result = _run(seed=2)
        assert result.duration_us > 0
        assert result.throughput_qps == pytest.approx(
            result.completed / (result.duration_us / 1e6)
        )


class TestLoadShedding:
    def test_tiny_queues_shed_and_account(self):
        result = _run(seed=3, queue_depth=2, arrival_rate_ops_s=20_000.0)
        assert result.rejected > 0
        assert sum(t.rejected for t in result.tenants) == result.rejected
        # Sheds are also visible at the full queues themselves.
        assert sum(s.rejected_at for s in result.shards) >= result.rejected
        assert any("shed" in line for line in result.trace)

    def test_deep_queues_admit_everything(self):
        result = _run(
            seed=4,
            queue_depth=100_000,
            arrival_rate_ops_s=500.0,
            rebalance_every=0,
        )
        assert result.rejected == 0
        assert result.completed == result.issued


class TestModes:
    def test_closed_loop_clients_complete_their_ops(self):
        result = _run(seed=5, closed_clients=4, arrival_rate_ops_s=500.0)
        closed = [t for t in result.tenants if t.mode == "closed"]
        assert len(closed) == 4
        # One request in flight at a time: a closed client can only be
        # shed when open-loop traffic fills the queues — here there is
        # none, so every op completes.
        assert all(t.rejected == 0 for t in closed)
        assert all(t.completed == t.issued for t in closed)

    def test_mixed_modes(self):
        result = _run(seed=6, closed_clients=2)
        modes = [t.mode for t in result.tenants]
        assert modes == ["open", "open", "closed", "closed"]

    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_partition_modes_run(self, partition):
        result = _run(seed=7, partition=partition, total_ops=600)
        assert result.completed > 0


class TestArbiter:
    def test_rebalances_fire_and_budgets_sum(self):
        result = _run(seed=8)
        assert result.rebalances >= 1
        assert (
            sum(s.budget_bytes for s in result.shards)
            == FAST["cache_bytes"]
        )
        assert any("rebalance" in line for line in result.trace)

    def test_rebalancing_disabled(self):
        result = _run(seed=9, rebalance_every=0)
        assert result.rebalances == 0


class TestDeterminism:
    def test_fingerprint_reproduces(self):
        a = _run(seed=10)
        b = _run(seed=10)
        assert a.trace == b.trace
        assert a.fingerprint() == b.fingerprint()

    def test_seeds_diverge(self):
        assert _run(seed=11).fingerprint() != _run(seed=12).fingerprint()

    def test_report_is_stable_text(self):
        a = _run(seed=13)
        b = _run(seed=13)
        assert a.format_report() == b.format_report()
        assert "per-tenant" in a.format_report()


class TestStrategies:
    def test_block_strategy_serves(self):
        result = _run(seed=14, strategy="block", total_ops=600)
        assert result.completed > 0
        assert result.fleet_window.io_miss > 0

    def test_fleet_window_aggregates_all_shards(self):
        result = _run(seed=15, total_ops=600)
        assert result.fleet_window.ops == sum(
            s.subrequests_served for s in result.shards
        )


class TestBatchedServing:
    def test_batched_run_is_deterministic(self):
        a = _run(seed=31, batch_size=4)
        b = _run(seed=31, batch_size=4)
        assert a.fingerprint() == b.fingerprint()
        assert a.shed_by_reason == b.shed_by_reason

    def test_batch_of_one_matches_default_config(self):
        # batch_size=1 is the default; explicitly passing it must not
        # perturb the simulation in any observable way.
        assert (
            _run(seed=32, batch_size=1).fingerprint()
            == _run(seed=32).fingerprint()
        )

    def test_batched_conservation_holds(self):
        result = _run(seed=33, batch_size=4)
        assert result.issued == FAST["total_ops"]
        assert result.completed + result.rejected == result.issued
        served = sum(s.subrequests_served for s in result.shards)
        assert result.queue_wait.count == served

    def test_batched_sheds_under_deadline_pressure_account_and_repeat(self):
        kwargs = dict(
            seed=34,
            batch_size=4,
            queue_depth=2,
            arrival_rate_ops_s=20_000.0,
            op_deadline_us=300.0,
        )
        result = _run(**kwargs)
        assert result.rejected > 0
        assert result.completed + result.rejected == result.issued
        assert result.shed_by_reason.get("queue_full", 0) > 0
        assert result.shed_by_reason.get("deadline", 0) > 0
        again = _run(**kwargs)
        assert again.fingerprint() == result.fingerprint()
        assert again.shed_by_reason == result.shed_by_reason

    @pytest.mark.parametrize("resilient", [False, True], ids=["plain", "resilient"])
    def test_shards_start_only_after_the_whole_burst_is_queued(self, resilient):
        """One start order, with or without the failure model: no shard
        starts serving while an arrival's burst is still being queued."""
        from repro.serve.resilience import ResilienceConfig

        result = _run(
            seed=35,
            batch_size=8,
            resilience=ResilienceConfig() if resilient else None,
        )
        bursts = {}  # (time, tenant) -> trace index of its first and last arrive
        starts = []
        for index, record in enumerate(result.trace):
            time_us, kind, *fields = record.split()
            if kind == "arrive":
                first, _ = bursts.get((time_us, fields[1]), (index, index))
                bursts[(time_us, fields[1])] = (first, index)
            elif kind == "start":
                starts.append(index)
        assert max(last - first for first, last in bursts.values()) > 0
        assert starts
        for first, last in bursts.values():
            inside = [i for i in starts if first < i < last]
            assert not inside, result.trace[first : last + 1]
