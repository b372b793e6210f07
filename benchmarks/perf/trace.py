"""Span tracing for the traced benchmark child.

Only the traced child imports this module.  :func:`install` replaces
the layers' *public* methods, at class level, with wrappers that record
one span per call; nothing under ``src/`` is edited.  It must run before
any engine or fleet is built, because the hot paths hoist bound methods
at construction (``tree.set_block_fetch(block_cache.fetch_through)``,
``on_window=self.controller.on_window``).

A span is ``(hook, start_ns, end_ns, parent span, op id)``.  Spans live
in preallocated arrays and are rolled up once, when the run ends.  A
layer's self time is the sum of its spans' durations minus the part of
each that child spans cover; spans nest strictly (the wrappers keep a
stack), so one pass over the arrays does it.

Work a layer inlines instead of calling — the tree's fence checks, a
``DataBlock`` lookup, the wrappers' own bookkeeping — is charged to the
caller's self time.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: Layer that owns whatever the root span covers and no hook does.
OTHER = "other"

#: Every ``host.frac.*`` layer, in report order.
LAYERS: Tuple[str, ...] = (
    "core.engine",
    "core.controller",
    "cache.range",
    "cache.block",
    "cache.sketch",
    "cache.tier2",
    "lsm.tree",
    "lsm.bloom",
    "lsm.storage",
    "lsm.compaction",
    "lsm.wal",
    "serve.loop",
    "serve.router",
    "serve.arbiter",
    "serve.resilience",
    "bench.simclock",
    "obs",
    OTHER,
)


class Hook(NamedTuple):
    """One traced entry point.

    ``exercised_by`` names the workload on which a silent zero call
    count means the hook is broken; ``None`` marks an entry point the
    ``adcache`` strategy never reaches (it is still wrapped, so a later
    change that starts calling it shows up in the layer's share).
    """

    layer: str
    module: str
    owner: str
    method: str
    exercised_by: Optional[str]

    @property
    def name(self) -> str:
        return f"{self.owner}.{self.method}"


def _hooks(
    layer: str, module: str, owner: str, methods: Dict[str, Optional[str]]
) -> List[Hook]:
    return [Hook(layer, module, owner, m, w) for m, w in methods.items()]


HOOKS: Tuple[Hook, ...] = tuple(
    _hooks("core.engine", "repro.core.engine", "KVEngine", {
        "get": "point_cold", "scan": "scan_cold", "put": "mixed_write",
        "delete": "mixed_write", "multi_get": "batch_mixed",
        "multi_scan": "batch_mixed", "multi_put": "batch_mixed",
    })
    + _hooks("core.controller", "repro.core.controller",
             "PolicyDecisionController", {"on_window": "point_cold"})
    + _hooks("cache.range", "repro.cache.range_cache", "RangeCache", {
        "get_point": "point_fit", "get_range": "scan_cold",
        "insert_point": "point_cold", "insert_points": "batch_mixed",
        "insert_range": "scan_cold", "on_write": "mixed_write",
        "on_delete": "mixed_write",
    })
    + _hooks("cache.block", "repro.cache.block_cache", "BlockCache", {
        "fetch_through": "point_cold",
        # Probe/fill entry points of the prefetcher and KP cache only.
        "get": None, "put": None,
    })
    + _hooks("cache.sketch", "repro.cache.admission", "FrequencyAdmission", {
        "observe_and_decide": "point_cold",
        "observe_and_decide_batch": "batch_mixed",
    })
    + _hooks("cache.tier2", "repro.cache.tier2", "Tier2Cache", {
        "tier2_probe": "serve_full", "tier2_offer": "serve_full",
    })
    + _hooks("cache.tier2", "repro.serve.tier2", "Tier2Client", {
        "fetch_through": "serve_full", "on_demote": "serve_full",
    })
    + _hooks("lsm.tree", "repro.lsm.tree", "LSMTree", {
        "get_from_sstables_with_origin": "point_cold",
        "multi_get_from_sstables": "batch_mixed",
        "scan": "scan_cold", "put": "mixed_write", "delete": "mixed_write",
        "flush": "mixed_write", "fetch_block": "point_cold",
        # The engine calls the ``_with_origin`` variant directly.
        "get_from_sstables": None,
    })
    + _hooks("lsm.bloom", "repro.lsm.bloom", "BloomFilter", {
        "may_contain": "point_cold", "may_contain_hashed": "batch_mixed",
        "build": "mixed_write",
        # The batched tree walk hashes once per batch and calls
        # ``may_contain_hashed``; nothing reaches the per-table batch probe.
        "may_contain_batch": None,
    })
    + _hooks("lsm.storage", "repro.lsm.storage", "SimulatedDisk", {
        "read_block": "point_cold", "install": "mixed_write",
        "delete": "mixed_write",
    })
    + _hooks("lsm.compaction", "repro.lsm.compaction", "Compactor",
             {"maybe_compact": "mixed_write"})
    + _hooks("lsm.wal", "repro.lsm.wal", "WriteAheadLog",
             {"append": "mixed_write", "truncate": "mixed_write"})
    + _hooks("serve.loop", "repro.serve.events", "EventLoop",
             {"at": "serve_flat", "step": "serve_flat"})
    + _hooks("serve.router", "repro.serve.router", "ShardRouter", {
        "plan": "serve_flat", "execute": "serve_flat",
        "merge_scan": "serve_flat", "plan_healthy": "serve_full",
        "execute_batch": "serve_full",
        # The fleet plans each arrival on its own; only callers outside
        # the simulator split whole batches.
        "split_batch": None,
    })
    + _hooks("serve.arbiter", "repro.serve.arbiter", "BudgetArbiter",
             {"rebalance": "serve_flat"})
    + _hooks("serve.resilience", "repro.serve.resilience", "CircuitBreaker", {
        "allow": "serve_full", "record_success": "serve_full",
        "force_open": "serve_full", "half_open": "serve_full",
        # No op timeout is configured, so only crashes fail a shard.
        "record_failure": None,
    })
    + _hooks("serve.resilience", "repro.serve.resilience", "DegradationLadder",
             {"observe": "serve_full", "admits": "serve_full"})
    + _hooks("obs", "repro.obs.recorder", "ObsRecorder", {
        "inc": "serve_full", "observe": "serve_full",
        "set_gauge": "serve_full", "event": "serve_full",
        "end_window": "serve_full",
    })
    + _hooks("bench.simclock", "repro.bench.simclock", "ClockReading",
             {"capture": "serve_flat"})
)

#: Hook whose every call starts a new request/op id (one loop event).
_OP_BOUNDARY = "EventLoop.step"


class SpanRecorder:
    """Preallocated span storage plus the open-span stack."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        # Repeating a one-item array allocates each buffer once and frees
        # nothing large.  Building them from a temporary ``bytes`` did, and
        # glibc answers the free of a big mmapped block by raising its mmap
        # threshold: numpy's temporaries in the controller then came from
        # the heap and ``on_window`` ran twice as fast traced as untraced.
        self.hook = array("h", (0,)) * capacity
        self.start = array("q", (0,)) * capacity
        self.end = array("q", (0,)) * capacity
        self.parent = array("i", (0,)) * capacity
        self.op = array("i", (0,)) * capacity
        self.count = 0
        self.dropped = 0
        self.current = -1  # innermost open span
        self.op_id = -1
        self.on = False
        self.names: List[str] = []
        self.layers: List[str] = []

    def register(self, name: str, layer: str) -> int:
        """Hook id for ``name``; ids index :attr:`names`/:attr:`layers`."""
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def wrap(self, func: Callable, hook_id: int, op_boundary: bool = False) -> Callable:
        """``func`` recording one span per call while :attr:`on`."""
        rec = self
        hook, start, end = self.hook, self.start, self.end
        parent, op = self.parent, self.op
        capacity = self.capacity
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not rec.on:
                return func(*args, **kwargs)
            i = rec.count
            if i >= capacity:
                rec.dropped += 1
                return func(*args, **kwargs)
            rec.count = i + 1
            if op_boundary:
                rec.op_id += 1
            hook[i] = hook_id
            parent[i] = outer = rec.current
            op[i] = rec.op_id
            rec.current = i
            start[i] = now()
            try:
                return func(*args, **kwargs)
            finally:
                end[i] = now()
                rec.current = outer

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        traced.__name__ = getattr(func, "__name__", "traced")
        return traced

    def rollup(self) -> Dict[str, object]:
        """Per-layer self time, per-hook self time and call counts."""
        n = self.count
        hook, start, end, parent = self.hook, self.start, self.end, self.parent
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        root_ns = 0
        for i in range(n):
            duration = end[i] - start[i]
            h = hook[i]
            self_ns[h] += duration
            calls[h] += 1
            p = parent[i]
            if p >= 0:
                self_ns[hook[p]] -= duration
            else:
                root_ns += duration
        layer_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        for h, ns in enumerate(self_ns):
            layer_ns[self.layers[h]] += ns
        return {
            "root_ns": root_ns,
            "spans": n,
            "dropped": self.dropped,
            "layer_self_ns": layer_ns,
            "hook_self_ns": dict(zip(self.names, self_ns)),
            "hook_calls": dict(zip(self.names, calls)),
        }

    def dump(self, path: str) -> None:
        """Raw spans as JSON lines (``--dump-spans`` only)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"hooks": self.names, "layers": self.layers}) + "\n")
            for i in range(self.count):
                fh.write(
                    json.dumps(
                        [self.hook[i], self.start[i], self.end[i],
                         self.parent[i], self.op[i]]
                    )
                    + "\n"
                )


def install(rec: SpanRecorder) -> int:
    """Wrap every :data:`HOOKS` entry point; returns the root hook id.

    The root hook (layer ``other``) is not installed anywhere: the child
    wraps its own per-op call, or the whole ``run_serve``, with it.
    """
    for spec in HOOKS:
        owner = getattr(importlib.import_module(spec.module), spec.owner)
        raw = owner.__dict__[spec.method]
        hook_id = rec.register(spec.name, spec.layer)
        boundary = spec.name == _OP_BOUNDARY
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(rec.wrap(raw.__func__, hook_id, boundary))
        else:
            wrapped = rec.wrap(raw, hook_id, boundary)
        setattr(owner, spec.method, wrapped)
    return rec.register("root", OTHER)
