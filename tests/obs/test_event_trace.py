"""Event trace ring buffer: bounds, drop accounting, fleet merge."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObsError
from repro.obs import names as N
from repro.obs.schema import validate_events_lines
from repro.obs.trace import EventTrace, export_fleet_events


class TestEventTrace:
    def test_unknown_kind_rejected(self):
        trace = EventTrace(4096)
        with pytest.raises(ObsError, match="unknown event kind"):
            trace.record(0.0, "made_up_kind")

    def test_ring_bounds_and_counts_drops(self):
        trace = EventTrace(capacity=3)
        for i in range(5):
            trace.record(float(i), N.EV_FLUSH, {"sst": i})
        assert len(trace) == 3
        assert trace.dropped_total == 2
        assert trace.next_seq == 5
        # The survivors are the newest three, in order.
        assert [e.fields["sst"] for e in trace.events()] == [2, 3, 4]

    def test_kind_counts(self):
        trace = EventTrace(4096)
        trace.record(0.0, N.EV_FLUSH)
        trace.record(1.0, N.EV_FLUSH)
        trace.record(2.0, N.EV_COMPACTION)
        assert trace.kind_counts() == {N.EV_COMPACTION: 1, N.EV_FLUSH: 2}

    def test_export_jsonl_validates_and_reports_drops(self, tmp_path):
        trace = EventTrace(capacity=2)
        for i in range(3):
            trace.record(float(i), N.EV_WINDOW, {"index": i})
        path = tmp_path / "events.jsonl"
        trace.export_jsonl(str(path))
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        assert validate_events_lines(objs, "events.jsonl") == []
        assert objs[0]["dropped"] == 1 and objs[0]["recorded"] == 3


class TestFleetEvents:
    def test_merged_file_is_shard_tagged_and_monotone(self, tmp_path):
        a, b = EventTrace(4096), EventTrace(4096)
        a.record(5.0, N.EV_FLUSH, {"sst": 1})
        a.record(20.0, N.EV_COMPACTION)
        b.record(5.0, N.EV_FLUSH, {"sst": 9})
        b.record(10.0, N.EV_WINDOW, {"index": 0})
        path = tmp_path / "events.jsonl"
        export_fleet_events([a, b], str(path))
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        assert validate_events_lines(objs, "events.jsonl") == []
        events = objs[1:]
        # Interleave by (ts, shard, seq); shard 0 wins the ts=5.0 tie.
        assert [(e["ts_us"], e["fields"]["shard"]) for e in events] == [
            (5.0, 0), (5.0, 1), (10.0, 1), (20.0, 0)
        ]
        assert [e["seq"] for e in events] == [0, 1, 2, 3]
        assert objs[0]["recorded"] == 4
