"""Fleet resilience end to end: failover, hedges, deadlines, determinism.

The claims under test, from the resilience layer's contract:

* two same-seed chaos runs are byte-identical (fingerprint and audit
  logs), and the fingerprint only folds resilience outputs when the
  feature is active — legacy configurations keep their golden hashes;
* crashing shards mid-run loses **zero acknowledged writes**: every
  write was shipped to the replica's WAL before the ack, and promotion
  replays it through the engine's normal crash-recovery path;
* scans that scatter over a dead shard complete as explicitly *partial*
  results (counted, never silently wrong); and
* request conservation (issued = completed + rejected) survives crashes,
  deadline expiry, breaker refusals, and degradation shedding.
"""

from __future__ import annotations

import pytest

from repro.bench.strategies import build_engine
from repro.errors import ConfigError
from repro.faults.fleet import FleetFaultConfig
from repro.lsm.options import LSMOptions
from repro.lsm.tree import LSMTree
from repro.serve.resilience import ResilienceConfig
from repro.serve.simulator import ServeConfig, run_serve
from repro.workloads.keys import key_of, value_of


def chaos_config(seed=11, partition="hash", crashes=2, **overrides):
    resilience = ResilienceConfig(
        fleet_faults=FleetFaultConfig(
            crashes=crashes,
            earliest_us=40_000.0,
            latest_us=300_000.0,
            seed=seed,
        ),
        hedge_quantile=overrides.pop("hedge_quantile", 0.0),
        op_timeout_us=overrides.pop("op_timeout_us", 0.0),
    )
    return ServeConfig(
        num_clients=4,
        num_shards=4,
        total_ops=3_000,
        num_keys=1_500,
        seed=seed,
        partition=partition,
        queue_depth=32,
        keep_trace=False,
        resilience=resilience,
        **overrides,
    )


@pytest.fixture(scope="module")
def default_chaos():
    """One shared default-config chaos run (the config is read-only)."""
    return run_serve(chaos_config())


class TestValidation:
    def test_negative_deadline_rejected(self):
        with pytest.raises(ConfigError):
            ServeConfig(op_deadline_us=-1.0)

    def test_resilience_active_flag(self):
        assert not ServeConfig().resilience_active
        assert ServeConfig(op_deadline_us=1.0).resilience_active
        assert ServeConfig(resilience=ResilienceConfig()).resilience_active


class TestLegacyFingerprint:
    def test_disabled_runs_do_not_fold_resilience_fields(self):
        result = run_serve(
            ServeConfig(
                num_clients=4, num_shards=2, total_ops=1_000,
                num_keys=500, keep_trace=False,
            )
        )
        before = result.fingerprint()
        # With resilience inactive these fields are structurally zero;
        # mutating them must not move the hash (they are not folded).
        result.crashes = 99
        result.shed_by_reason["queue_full"] = 123
        result.breaker_log.append("bogus")
        assert result.fingerprint() == before

    def test_active_runs_fold_resilience_fields(self, default_chaos):
        before = default_chaos.fingerprint()
        default_chaos.crashes += 1
        try:
            assert default_chaos.fingerprint() != before
        finally:
            default_chaos.crashes -= 1


class TestFailover:
    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_chaos_run_is_byte_identical(self, partition):
        a = run_serve(chaos_config(partition=partition))
        b = run_serve(chaos_config(partition=partition))
        assert a.fingerprint() == b.fingerprint()
        assert a.trace_digest == b.trace_digest
        assert a.breaker_log == b.breaker_log
        assert a.degrade_log == b.degrade_log
        assert a.shed_by_reason == b.shed_by_reason

    def test_seeds_diverge(self):
        assert (
            run_serve(chaos_config(seed=11)).fingerprint()
            != run_serve(chaos_config(seed=12)).fingerprint()
        )

    def test_no_acked_write_lost_range(self):
        result = run_serve(chaos_config(partition="range"))
        assert result.crashes == 2
        assert result.promotions == 2
        assert result.acked_writes_checked > 0
        assert result.lost_acked_writes == 0

    def test_no_acked_write_lost_hash(self, default_chaos):
        result = default_chaos
        assert result.crashes == 2
        assert result.promotions == 2
        assert result.acked_writes_checked > 0
        assert result.lost_acked_writes == 0

    def test_conservation_survives_crashes(self, default_chaos):
        result = default_chaos
        assert result.issued == result.completed + result.rejected
        per_tenant = [
            (t.issued, t.completed + t.rejected) for t in result.tenants
        ]
        assert all(issued == accounted for issued, accounted in per_tenant)

    def test_crashed_shards_are_marked_and_timed(self, default_chaos):
        result = default_chaos
        crashed = [s for s in result.shards if s.crashed]
        assert len(crashed) == 2
        for shard in crashed:
            assert shard.promoted
            assert shard.failover_us > 0.0
        survivors = [s for s in result.shards if not s.crashed]
        assert all(not s.promoted for s in survivors)

    def test_breaker_audit_covers_the_failover_arc(self, default_chaos):
        result = default_chaos
        # Every crashed shard's breaker walks crash -> promoted; the log
        # lines carry the shard and the transition.
        for shard in (s for s in result.shards if s.crashed):
            arc = [
                line for line in result.breaker_log
                if f"shard{shard.shard_id} " in line
            ]
            assert any("closed->open crash" in line for line in arc)
            assert any("open->half_open promoted" in line for line in arc)

    def test_scatter_gather_over_dead_shard_is_explicitly_partial(
        self, default_chaos
    ):
        result = default_chaos
        # Hash scans scatter to all shards; while one is down the gather
        # completes partial and is counted (completed, never silent).
        assert result.scans_partial > 0
        assert result.shed_by_reason.get("shard_down", 0) > 0

    def test_degradation_floors_while_down(self, default_chaos):
        result = default_chaos
        # A down shard floors the ladder at L1 (scan shed), so some
        # degradation transitions must appear in the audit.
        assert any("L0->L1" in line for line in result.degrade_log)


class TestDeadlines:
    def test_expired_waits_are_shed_with_reason(self):
        config = chaos_config(crashes=0)
        config.op_deadline_us = 2_000.0  # aggressive: sheds under load
        result = run_serve(config)
        assert result.shed_by_reason.get("deadline", 0) > 0
        assert result.issued == result.completed + result.rejected

    def test_deadline_only_runs_reproduce(self):
        cfg = dict(
            num_clients=4, num_shards=2, total_ops=1_500, num_keys=800,
            queue_depth=16, keep_trace=False, op_deadline_us=3_000.0,
        )
        a = run_serve(ServeConfig(**cfg))
        b = run_serve(ServeConfig(**cfg))
        assert a.fingerprint() == b.fingerprint()


class TestHedgedReads:
    def test_hedges_fire_and_reproduce(self):
        a = run_serve(chaos_config(hedge_quantile=0.9))
        b = run_serve(chaos_config(hedge_quantile=0.9))
        assert a.fingerprint() == b.fingerprint()
        assert a.hedges > 0
        assert 0 <= a.hedge_wins <= a.hedges
        assert a.lost_acked_writes == 0

    def test_hedging_disabled_by_default(self, default_chaos):
        assert default_chaos.hedges == 0


class TestPromotionExactness:
    def test_promoted_replica_serves_exactly_the_primary_state(self):
        """WAL shipping + crash recovery reproduce the primary, bit for bit."""
        def seeded_engine(engine_seed):
            tree = LSMTree(
                LSMOptions(memtable_entries=16, entries_per_sstable=32)
            )
            tree.bulk_load(
                ((key_of(i), value_of(i)) for i in range(200)), seed=7
            )
            return build_engine("adcache", tree, 64 * 1024, seed=engine_seed)

        primary, replica = seeded_engine(1), seeded_engine(2)
        shipped = 0
        for i in range(0, 200, 3):
            primary.put(key_of(i), f"fresh{i:04d}")
            replica.tree.wal.append(key_of(i), f"fresh{i:04d}")
            shipped += 1
        for i in range(0, 200, 7):
            primary.delete(key_of(i))
            replica.tree.wal.append(key_of(i), None)
            shipped += 1
        replayed = replica.crash_and_recover()
        assert replayed == shipped
        for i in range(200):
            assert replica.get(key_of(i)) == primary.get(key_of(i))
        assert replica.scan(key_of(0), 200) == primary.scan(key_of(0), 200)
