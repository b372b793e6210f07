"""Stateful model check: the engine and the fleet against one reference model.

Two hypothesis state machines run :class:`~tests.reference_model.ReferenceModel`
in lock-step with the system under test:

* :class:`EngineMachine` drives one :class:`~repro.core.engine.KVEngine`
  of any ``STRATEGIES`` entry (plus AdCache at ``window_size=10,
  hidden_dim=16``) through scalar and batched reads and writes, forced
  flushes and compactions, ``crash_and_recover`` and budget resizes.
* :class:`FleetMachine` drives a 2-shard serving fleet one burst at a
  time through the ``_Simulation`` kernel, with or without the failure
  model and the shared L2, and crashes and promotes shards.

A cell is one point of the matrix: engine strategy × batch {1, 8, 32},
or fleet batch {1, 8} × failure model on/off × L2 on/off, over a small
drawn LSM geometry.  After every rule each machine checks what every
read returned, that every cached entry holds the live value and every
complete range-cache interval holds every live key in it, and its
budget and durability books.

The default profile (tier 1) draws a cell per example, and whether the
example runs under ``REPRO_SANITIZE=1`` or under the environment as it
is.  The ``slow`` profile enumerates every cell under the environment
as it is, so run it sanitized::

    REPRO_SANITIZE=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_model_check.py -m slow
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.bench.harness import apply_batch, apply_operation, seed_database
from repro.bench.strategies import STRATEGIES, build_engine
from repro.core.adcache import AdCacheEngine
from repro.core.config import AdCacheConfig
from repro.core.engine import KVEngine
from repro.lsm.block import Entry
from repro.lsm.options import BLOCK_SIZE, LSMOptions
from repro.lsm.tree import LSMTree
from repro.serve.resilience import ResilienceConfig
from repro.serve.router import ShardRouter
from repro.serve.session import ClientSession, TenantConfig
from repro.serve.simulator import ServeConfig, _Simulation
from repro.workloads.generator import Operation
from repro.workloads.keys import key_of, value_of
from tests.reference_model import OpResult, ReferenceModel

#: Keys bulk-loaded before the first rule; puts may create a few more.
NUM_KEYS = 48
KEY_SPACE = NUM_KEYS + 8
#: Ops per controller window, so boundary moves happen mid-sequence.
WINDOW = 10

key_ids = st.integers(0, KEY_SPACE - 1)
operations = st.one_of(
    st.builds(lambda i: Operation("get", key_of(i)), key_ids),
    st.builds(
        lambda i, n: Operation("scan", key_of(i), length=n),
        key_ids,
        st.integers(1, 12),
    ),
    st.builds(
        lambda i, v: Operation("put", key_of(i), value=value_of(i, v)),
        key_ids,
        st.integers(1, 5),
    ),
    st.builds(lambda i: Operation("delete", key_of(i)), key_ids),
)


@st.composite
def geometries(draw) -> LSMOptions:
    """Small trees: a few dozen writes flush, compact and deepen them."""
    block = draw(st.sampled_from((1, 2, 4)))
    return LSMOptions(
        entries_per_block=block,
        entries_per_sstable=block * draw(st.sampled_from((1, 2, 4))),
        memtable_entries=draw(st.sampled_from((2, 4, 8))),
        level0_file_num_compaction_trigger=draw(st.sampled_from((1, 2, 4))),
        max_levels=draw(st.sampled_from((3, 4, 7))),
    )


#: Every strategy the engine machine runs, by cell name.
ENGINE_STRATEGIES = sorted(STRATEGIES) + ["adcache-w10-h16"]
ENGINE_BATCHES = (1, 8, 32)
FLEET_CELLS = [
    (batch, resilient, l2)
    for batch in (1, 8)
    for resilient in (False, True)
    for l2 in (False, True)
]
SANITIZE = (False, True)
#: The fleet's engines: every strategy but the pretrained one, whose
#: actor pretraining costs up to a second per engine (a fleet builds
#: four) and whose caches are AdCache's.
FLEET_STRATEGIES = [s for s in sorted(STRATEGIES) if s != "adcache-pretrained"]


def _build(strategy: str, tree: LSMTree, cache_bytes: int) -> KVEngine:
    if strategy == "adcache-w10-h16":
        # The full stack with a live controller on a tiny network.
        config = AdCacheConfig(
            total_cache_bytes=cache_bytes, window_size=WINDOW, hidden_dim=16, seed=2
        )
        return AdCacheEngine(tree, config)
    engine = build_engine(strategy, tree, cache_bytes, seed=1)
    engine.window_size = WINDOW
    return engine


class _SanitizeEnv:
    """The sanitized leg: ``REPRO_SANITIZE=1`` for one run, then the old
    value back.  The plain leg runs under whatever the environment says."""

    def __init__(self, on: bool) -> None:
        self._on = on
        self._old = os.environ.get("REPRO_SANITIZE")
        if on:
            os.environ["REPRO_SANITIZE"] = "1"

    def restore(self) -> None:
        if not self._on:
            return
        if self._old is None:
            os.environ.pop("REPRO_SANITIZE", None)
        else:
            os.environ["REPRO_SANITIZE"] = self._old


def check_cache_coherence(
    engine: KVEngine, model: ReferenceModel, owned: Optional[Sequence[str]] = None
) -> None:
    """Every cached result is live, and complete intervals are complete.

    ``owned`` is the sorted live keys the engine is responsible for (a
    shard's slice; default: every live key).
    """
    live = model.keys() if owned is None else owned
    for cache in (engine.range_cache, engine.kv_cache):
        if cache is None:
            continue
        for key in cache.keys():
            assert cache.peek(key) == model.get(key), ("stale cached entry", key)
    range_cache = engine.range_cache
    if range_cache is None:
        return
    for first, last in range_cache.complete_intervals():
        lo, hi = bisect_left(live, first), bisect_right(live, last)
        missing = [k for k in live[lo:hi] if k not in range_cache]
        assert not missing, ("incomplete interval", first, last, missing)


class EngineMachine(RuleBasedStateMachine):
    """One engine cell against the model."""

    def __init__(
        self,
        strategies: Sequence[str],
        batches: Sequence[int],
        legs: Sequence[bool] = SANITIZE,
    ) -> None:
        super().__init__()
        self.strategies = strategies
        self.batches = batches
        self.legs = legs
        self.env: Optional[_SanitizeEnv] = None

    @initialize(data=st.data(), options=geometries(), blocks=st.integers(1, 8))
    def build(self, data, options, blocks) -> None:
        strategy = data.draw(st.sampled_from(self.strategies), label="strategy")
        self.batch = data.draw(st.sampled_from(self.batches), label="batch")
        self.env = _SanitizeEnv(data.draw(st.sampled_from(self.legs), label="sanitized"))
        self.budget = blocks * BLOCK_SIZE
        self.engine = _build(strategy, seed_database(NUM_KEYS, options), self.budget)
        self.model = ReferenceModel.seeded(NUM_KEYS)

    @rule(op=operations)
    def scalar(self, op: Operation) -> None:
        assert apply_operation(self.engine, op) == self.model.apply(op), op

    @rule(data=st.data())
    def batch(self, data) -> None:
        """One ``apply_batch``: every read sees the pre-batch state
        through ``multi_get``/``multi_scan``, then the writes apply in
        order."""
        ops = data.draw(st.lists(operations, min_size=1, max_size=self.batch))
        gets = [op for op in ops if op.kind == "get"]
        if gets:
            got = self.engine.multi_get([op.key for op in gets])
            assert got == [self.model.get(op.key) for op in gets], gets
        scans = [op for op in ops if op.kind == "scan"]
        if scans:
            got_entries = self.engine.multi_scan([(op.key, op.length) for op in scans])
            assert got_entries == [self.model.scan(op.key, op.length) for op in scans]
        writes = [op for op in ops if op.kind in ("put", "delete")]
        apply_batch(self.engine, writes)
        for op in writes:
            self.model.apply(op)

    @rule()
    def flush(self) -> None:
        self.engine.tree.flush()

    @rule()
    def compact(self) -> None:
        """Rewrite live values (and tombstone dead keys) until a
        compaction runs: physical churn, no logical change."""
        compactor = self.engine.tree.compactor
        before = compactor.compactions_total
        i = 0
        while compactor.compactions_total == before and i < 50 * KEY_SPACE:
            key = key_of(i % KEY_SPACE)
            value = self.model.get(key)
            if value is None:
                self.engine.delete(key)
            else:
                self.engine.put(key, value)
            i += 1
        assert compactor.compactions_total > before

    @rule()
    def crash_and_recover(self) -> None:
        self.engine.crash_and_recover()

    @rule(blocks=st.integers(0, 8))
    def set_cache_budget(self, blocks: int) -> None:
        self.budget = blocks * BLOCK_SIZE
        self.engine.set_cache_budget(self.budget)

    @invariant()
    def caches_hold_live_values(self) -> None:
        check_cache_coherence(self.engine, self.model)

    @invariant()
    def budget_is_conserved(self) -> None:
        assert self.engine.cache_budget_total == self.budget

    def teardown(self) -> None:
        try:
            if hasattr(self, "engine"):
                for i in range(KEY_SPACE):
                    key = key_of(i)
                    assert self.engine.get(key) == self.model.get(key), key
                self.engine.check_invariants()
        finally:
            if self.env is not None:
                self.env.restore()


# -- the fleet ---------------------------------------------------------------


class _BurstSession(ClientSession):
    """A test tenant: hands the kernel whatever burst the machine queued."""

    __slots__ = ("burst",)

    def __init__(self, name: str) -> None:
        super().__init__(TenantConfig(name, ops=1), iter(()))
        self.burst: List[Operation] = []

    def arrivals(self, now_us: float, batch_size: int):
        burst, self.burst = self.burst, []
        self.issued += len(burst)
        return burst, None


class _EngineView:
    """An engine whose ``multi_get`` answers are kept for the router."""

    def __init__(self, engine: KVEngine, values: List[Optional[str]]) -> None:
        self._engine = engine
        self._values = values

    def multi_get(self, keys: Sequence[str]) -> List[Optional[str]]:
        values = self._engine.multi_get(keys)
        self._values.extend(values)
        return values

    def __getattr__(self, name: str):
        return getattr(self._engine, name)


class _RecordingRouter(ShardRouter):
    """The kernel's router, remembering what each executed op read.

    ``executed`` maps ``id(op)`` of each executed point op or write to
    its result (scans are gathered per request, see the machine).
    """

    def __init__(self, router: ShardRouter) -> None:
        super().__init__(router.num_shards, router.num_keys, router.partition)
        self.executed: Dict[int, OpResult] = {}

    def execute(self, engine: KVEngine, op: Operation) -> OpResult:
        result = super().execute(engine, op)
        if op.kind != "scan":
            self.executed[id(op)] = result
        return result

    def execute_batch(self, engine: KVEngine, ops: Sequence[Operation]) -> List[List[Entry]]:
        values: List[Optional[str]] = []
        out = super().execute_batch(_EngineView(engine, values), ops)
        got = iter(values)
        for op in ops:
            if op.kind == "get":
                self.executed[id(op)] = next(got)
            elif op.kind != "scan":
                self.executed[id(op)] = None
        return out


class FleetMachine(RuleBasedStateMachine):
    """A 2-shard fleet cell against the model, one burst at a time.

    Every shard serves its queue in arrival order, so a read sees
    exactly the executed writes that arrived before it: replaying the
    arrivals in order through the model, applying a write only if some
    shard executed it, gives what every completed read must return.
    Shed, expired and crash-drained writes were never executed; a
    write executed before its shard crashed was shipped to the replica
    first, so it survives promotion.
    """

    def __init__(
        self,
        cells: Sequence[Tuple[int, bool, bool]],
        legs: Sequence[bool] = SANITIZE,
    ) -> None:
        super().__init__()
        self.cells = cells
        self.legs = legs
        self.env: Optional[_SanitizeEnv] = None

    @initialize(
        data=st.data(),
        strategy=st.sampled_from(FLEET_STRATEGIES),
        memtable=st.sampled_from((2, 4, 8)),
        sstable=st.sampled_from((4, 8, 16)),
        queue_depth=st.integers(1, 6),
        cache_blocks=st.sampled_from((8, 16, 32)),
    )
    def build(
        self, data, strategy, memtable, sstable, queue_depth, cache_blocks
    ) -> None:
        batch, resilient, l2 = data.draw(st.sampled_from(self.cells), label="cell")
        self.batch = batch
        self.env = _SanitizeEnv(data.draw(st.sampled_from(self.legs), label="sanitized"))
        config = ServeConfig(
            num_clients=1,
            num_shards=2,
            total_ops=1,
            strategy=strategy,
            num_keys=NUM_KEYS,
            cache_bytes=cache_blocks * BLOCK_SIZE,
            l2_budget_bytes=cache_blocks // 4 * BLOCK_SIZE if l2 else 0,
            queue_depth=queue_depth,
            batch_size=batch,
            rebalance_every=8,
            window_size=WINDOW,
            memtable_entries=memtable,
            entries_per_sstable=sstable,
            keep_trace=False,
            # Tight enough that requests expire, breakers trip on slow
            # slots and scans route past open breakers as partials.
            op_deadline_us=500.0 if resilient else 0.0,
            resilience=(
                ResilienceConfig(
                    op_timeout_us=300.0,
                    hedge_quantile=0.2,
                    hedge_min_samples=4,
                    hedge_floor_us=0.0,
                )
                if resilient
                else None
            ),
        )
        self.sim = sim = _Simulation(config)
        self.router = sim.router = _RecordingRouter(sim.router)
        # The failure model's owner tenant is the first session's name.
        self.session = _BurstSession(sim.sessions[0].name)
        sim.sessions = [self.session]
        sim.by_name = {self.session.name: self.session}
        self.scans: Dict[int, Tuple[List[Entry], bool]] = {}
        kernel_finish = sim.finish_request

        def finish_request(request) -> None:
            if not request.done and request.parts:
                merged = sim.router.merge_scan(request.parts, request.op.length)
                self.scans[id(request.op)] = (merged, request.parts_dropped > 0)
            kernel_finish(request)

        sim.finish_request = finish_request
        self.model = ReferenceModel.seeded(NUM_KEYS)
        #: Arrived ops whose outcome is not checked yet, in arrival order.
        self.pending: List[Operation] = []

    # -- driving the kernel ---------------------------------------------------

    def _issue(self, ops: List[Operation]) -> None:
        self.session.burst = ops
        self.pending.extend(ops)
        self.sim.issue(self.session)

    def _drain(self) -> None:
        """Run the loop dry, then replay the arrivals through the model."""
        self.sim.loop.run()
        executed, scans = self.router.executed, self.scans
        for op in self.pending:
            if op.kind == "scan":
                if id(op) not in scans:
                    continue
                got, partial = scans[id(op)]
                if partial:
                    # Explicitly partial: live entries, in order, only fewer.
                    keys = [k for k, _ in got]
                    assert keys == sorted(keys) and len(keys) <= op.length, op
                    assert all(self.model.get(k) == v for k, v in got), op
                else:
                    assert got == self.model.scan(op.key, op.length), op
            elif id(op) in executed:
                assert executed[id(op)] == self.model.apply(op), op
        self.pending = []
        executed.clear()
        scans.clear()

    @rule(data=st.data(), steps=st.one_of(st.none(), st.integers(0, 6)))
    def burst(self, data, steps: Optional[int]) -> None:
        """One arrival of up to ``batch_size`` ops; then either run the
        loop dry or let only ``steps`` events pass, so the next burst
        lands on busy queues."""
        self._issue(data.draw(st.lists(operations, min_size=1, max_size=self.batch)))
        if steps is None:
            self._drain()
        else:
            for _ in range(steps):
                self.sim.loop.step()

    @rule()
    def drain(self) -> None:
        self._drain()

    @precondition(
        lambda self: self.sim.res is not None and self.sim.completed_total >= 16
    )
    @rule(shard=st.integers(0, 1), delay_us=st.one_of(st.none(), st.floats(0, 400)))
    def crash_shard(self, shard: int, delay_us: Optional[float]) -> None:
        """Kill a shard now or after ``delay_us``; promotion follows on
        the loop.  Each shard's replica is consumed by its first crash,
        which waits for some served traffic, so the shard's caches and
        its share of the shared tier hold something to lose."""
        res = self.sim.res
        assert res is not None
        if delay_us is None:
            res.crash(shard)
        else:
            self.sim.loop.after(delay_us, lambda: res.crash(shard))

    # -- checks ---------------------------------------------------------------

    def _owned(self, shard_id: int) -> List[str]:
        owner = self.sim.router.shard_of_key
        return [k for k in self.model.keys() if owner(k) == shard_id]

    @invariant()
    def caches_hold_live_values(self) -> None:
        if self.pending:
            return  # reads in flight may still see older values
        for shard in self.sim.shards:
            if not shard.down:
                check_cache_coherence(
                    shard.engine, self.model, self._owned(shard.shard_id)
                )

    @invariant()
    def budget_is_conserved(self) -> None:
        sim = self.sim
        tier2 = sim.tier2
        l1 = sum(shard.engine.cache_budget_total for shard in sim.shards)
        l2 = tier2.budget_bytes if tier2 is not None else 0
        assert l1 + l2 == sim.config.cache_bytes
        if tier2 is not None:
            cache = tier2.cache
            assert cache.stats.insertions + cache.rejects == cache.demotions

    @invariant()
    def shared_tier_holds_current_blocks(self) -> None:
        """Every L2 block of a live SSTable was read from that shard's
        current disk: a promoted replica reuses the dead primary's SSTable
        ids, so the primary's blocks must leave with it."""
        tier2 = self.sim.tier2
        if tier2 is None:
            return
        shards = self.sim.shards
        for key in tier2.cache.keys():
            shard_id, handle = key
            table = shards[shard_id].engine.tree.disk.table(handle.sst_id)
            if table is not None:
                assert tier2.cache.peek(key) is table.block_at(handle.block_no), key

    @invariant()
    def acked_writes_are_live(self) -> None:
        res = self.sim.res
        if res is None or self.pending:
            return
        for key, (_, value) in res.acked.items():
            assert self.model.get(key) == value, key

    def teardown(self) -> None:
        try:
            if hasattr(self, "sim"):
                self._drain()
                result = self.sim.run()  # the kernel's end-of-run sweeps
                assert result.lost_acked_writes == 0
                assert result.completed + result.rejected == result.issued
                sim = self.sim
                for i in range(KEY_SPACE):
                    key = key_of(i)
                    shard = sim.shards[sim.router.shard_of_key(key)]
                    assert shard.engine.get(key) == self.model.get(key), key
        finally:
            if self.env is not None:
                self.env.restore()


# -- profiles -----------------------------------------------------------------

#: Tier 1: each example draws its cell.
DEFAULT = settings(
    max_examples=25,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
#: ``slow``: every cell, each with more and longer runs.  The tier-1
#: fleet test draws from all eight fleet cells, so it gets these too.
DEEP = settings(DEFAULT, max_examples=100, stateful_step_count=60)


@pytest.mark.parametrize("strategy", ENGINE_STRATEGIES)
def test_engine_matches_model(strategy):
    run_state_machine_as_test(
        lambda: EngineMachine([strategy], ENGINE_BATCHES), settings=DEFAULT
    )


def test_fleet_matches_model():
    run_state_machine_as_test(
        lambda: FleetMachine(FLEET_CELLS), settings=DEEP
    )


@pytest.mark.slow
@pytest.mark.parametrize("batch", ENGINE_BATCHES)
@pytest.mark.parametrize("strategy", ENGINE_STRATEGIES)
def test_engine_cell_deep(strategy, batch):
    run_state_machine_as_test(
        lambda: EngineMachine([strategy], [batch], legs=[False]), settings=DEEP
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "cell", FLEET_CELLS, ids=lambda c: "b%d-r%d-l%d" % c
)
def test_fleet_cell_deep(cell):
    run_state_machine_as_test(
        lambda: FleetMachine([cell], legs=[False]), settings=DEEP
    )
