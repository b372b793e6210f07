"""Span self-time arithmetic."""

from __future__ import annotations

from trace import LAYERS, OTHER, SpanRecorder


def synthetic() -> SpanRecorder:
    """root[0,100] > a[10,60] > b[20,30], b[40,45]; root > b[70,90]; root2[100,110]."""
    rec = SpanRecorder(16)
    root = rec.register("root", OTHER)
    a = rec.register("A.f", "lsm.tree")
    b = rec.register("B.g", "lsm.bloom")
    spans = [  # hook, start, end, parent
        (root, 0, 100, -1), (a, 10, 60, 0), (b, 20, 30, 1), (b, 40, 45, 1),
        (b, 70, 90, 0), (root, 100, 110, -1),
    ]
    for i, (hook, start, end, parent) in enumerate(spans):
        rec.hook[i], rec.start[i], rec.end[i], rec.parent[i] = hook, start, end, parent
    rec.count = len(spans)
    return rec


def test_self_time_is_duration_minus_children():
    rolled = synthetic().rollup()
    assert rolled["root_ns"] == 110
    assert rolled["hook_self_ns"] == {"root": 30 + 10, "A.f": 50 - 15, "B.g": 10 + 5 + 20}
    assert rolled["hook_calls"] == {"root": 2, "A.f": 1, "B.g": 3}
    assert rolled["layer_self_ns"]["lsm.tree"] == 35
    assert rolled["layer_self_ns"]["lsm.bloom"] == 35
    assert rolled["layer_self_ns"][OTHER] == 40
    assert set(rolled["layer_self_ns"]) == set(LAYERS)
    assert sum(rolled["layer_self_ns"].values()) == rolled["root_ns"]


def test_wrappers_nest_and_only_record_while_on():
    rec = SpanRecorder(8)
    outer_id = rec.register("outer", "core.engine")
    inner_id = rec.register("inner", "cache.range")
    inner = rec.wrap(lambda x: x + 1, inner_id)
    outer = rec.wrap(lambda x: inner(inner(x)), outer_id, op_boundary=True)
    assert outer(0) == 2 and rec.count == 0  # off: nothing recorded
    rec.on = True
    assert outer(0) == 2 and outer(5) == 7
    assert list(rec.hook[:6]) == [outer_id, inner_id, inner_id] * 2
    assert list(rec.parent[:6]) == [-1, 0, 0, -1, 3, 3]
    assert list(rec.op[:6]) == [0, 0, 0, 1, 1, 1]
    assert rec.current == -1
    rolled = rec.rollup()
    assert sum(rolled["layer_self_ns"].values()) == rolled["root_ns"]


def test_full_recorder_counts_what_it_drops():
    rec = SpanRecorder(1)
    f = rec.wrap(lambda: None, rec.register("f", OTHER))
    rec.on = True
    f(), f(), f()
    assert (rec.count, rec.dropped) == (1, 2)
