"""Every checked structure adopts ``REPRO_SANITIZE`` in its own constructor.

Walks the whole object graph of a built AdCache engine and of a tiered,
resilient serving fleet: under the variable every
:class:`~repro.sanitize.Sanitized` object holds a sampler, without it
none does.  Serving components built on their own check themselves too.
"""

from __future__ import annotations

import gc
import types
from collections import deque

import pytest

from repro.bench.harness import seed_database
from repro.bench.strategies import build_engine
from repro.lsm.options import LSMOptions
from repro.sanitize import Sanitized, Sanitizer
from repro.serve.arbiter import BudgetArbiter
from repro.serve.queueing import Request, RequestQueue, SubRequest
from repro.serve.resilience import (
    DEGRADE_DWELL_US,
    CircuitBreaker,
    DegradationLadder,
    ResilienceConfig,
)
from repro.serve.simulator import ServeConfig, _Simulation
from repro.workloads.generator import Operation

OPTIONS = LSMOptions(memtable_entries=32, entries_per_sstable=64)

#: Referents the walk does not enter: a module, class or function leads
#: to globals that reach whatever else the process has built.
_OPAQUE = (types.ModuleType, type, types.FunctionType, types.CodeType)

#: Every gated class an AdCache fleet with L2 and resilience builds.
FLEET_CLASSES = {
    "BlockCache",
    "BudgetArbiter",
    "BudgetedCache",
    "CircuitBreaker",
    "DegradationLadder",
    "LSMTree",
    "RangeCache",
    "RequestQueue",
    "Tier2Cache",
    "Tier2Coordinator",
}


def _sanitized_in(root):
    """Every :class:`Sanitized` object reachable from ``root``, breadth
    first over :func:`gc.get_referents`."""
    seen = {id(root): root}
    queue = deque([root])
    found = []
    while queue:
        obj = queue.popleft()
        if isinstance(obj, Sanitized):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, _OPAQUE):
                seen[id(ref)] = ref
                queue.append(ref)
    return found


def _adcache_engine():
    return build_engine("adcache", seed_database(400, OPTIONS, seed=7), 64 * 1024, seed=1)


def _fleet():
    return _Simulation(
        ServeConfig(
            num_clients=2,
            num_shards=2,
            total_ops=200,
            num_keys=400,
            cache_bytes=128 * 1024,
            l2_budget_bytes=32 * 1024,
            resilience=ResilienceConfig(),
        )
    )


@pytest.mark.parametrize("build", [_adcache_engine, _fleet], ids=["adcache", "fleet"])
def test_every_structure_adopts_the_schedule(monkeypatch, build):
    monkeypatch.setenv("REPRO_SANITIZE", "2")
    found = _sanitized_in(build())
    assert all(isinstance(s._sanitizer, Sanitizer) for s in found)
    names = {type(s).__name__ for s in found}
    if build is _fleet:
        assert FLEET_CLASSES <= names
    else:
        assert {"BlockCache", "BudgetedCache", "LSMTree", "RangeCache"} <= names


@pytest.mark.parametrize("build", [_adcache_engine, _fleet], ids=["adcache", "fleet"])
def test_no_structure_samples_without_the_variable(monkeypatch, build):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    found = _sanitized_in(build())
    assert found
    assert all(s._sanitizer is None for s in found)


def _queue():
    queue = RequestQueue(0, 4)

    def mutate(i):
        request = Request(i, "t", Operation("get", f"k{i}"), 0.0, fanout=1)
        queue.push(SubRequest(request, 0, request.op, 0.0))

    return queue, mutate


def _breaker():
    breaker = CircuitBreaker(0)
    return breaker, lambda i: breaker.record_success(float(i))


def _ladder():
    ladder = DegradationLadder()
    return ladder, lambda i: ladder.observe(1.0, False, i * DEGRADE_DWELL_US)


def _arbiter():
    engines = [
        build_engine("block", seed_database(200, OPTIONS, seed=7), 32 * 1024, seed=s)
        for s in range(2)
    ]
    arbiter = BudgetArbiter(engines, 64 * 1024)
    return arbiter, lambda i: arbiter.rebalance(now_us=float(i))


@pytest.mark.parametrize(
    "build", [_queue, _breaker, _ladder, _arbiter], ids=["queue", "breaker", "ladder", "arbiter"]
)
def test_component_built_on_its_own_checks_itself(monkeypatch, build):
    monkeypatch.setenv("REPRO_SANITIZE", "2")
    component, mutate = build()
    # Period 2 draws gaps from [1, 3]: three mutations reach a check.
    for i in range(3):
        mutate(i)
    assert component._sanitizer.checks_run >= 1
