"""Recorder facade: null no-op path, live recorder, export structure."""

from __future__ import annotations

import json

from repro.obs import names as N
from repro.obs.recorder import (
    AUDIT_FILE,
    EVENTS_FILE,
    MANIFEST_FILE,
    METRICS_FILE,
    NULL_RECORDER,
    NullRecorder,
    ObsRecorder,
)
from repro.obs.schema import validate_export


class TestNullRecorder:
    def test_disabled_and_shared(self):
        assert NullRecorder.enabled is False
        assert NULL_RECORDER.enabled is False

    def test_every_method_is_a_noop(self):
        r = NullRecorder()
        # No validation, no state: even an unregistered name is ignored.
        # lint: disable-next=OBS001  # a no-op recorder must ignore unregistered names
        assert r.inc("anything") is None
        # lint: disable-next=OBS001  # a no-op recorder must ignore unregistered names
        assert r.set_gauge("anything", 1.0) is None
        # lint: disable-next=OBS001  # a no-op recorder must ignore unregistered names
        assert r.observe("anything", 1.0) is None
        # lint: disable-next=OBS001  # a no-op recorder must ignore unregistered names
        assert r.event("anything", key=1) is None
        assert r.advance_to(5.0) is None
        assert r.end_window(0) is None


class TestObsRecorder:
    def test_clock_is_monotone(self):
        r = ObsRecorder()
        r.advance_to(10.0)
        r.advance_to(5.0)  # going backward is ignored
        assert r.now_us == 10.0

    def test_events_stamped_with_current_time(self):
        r = ObsRecorder()
        r.advance_to(42.0)
        r.event(N.EV_FLUSH, sst=1)
        (event,) = r.trace.events()
        assert event.ts_us == 42.0 and event.fields == {"sst": 1}

    def test_end_window_seals_metrics(self):
        r = ObsRecorder()
        r.inc(N.WINDOW_OPS, 7)
        r.advance_to(99.0)
        r.end_window(0)
        (snap,) = r.metrics.windows
        assert snap.index == 0 and snap.ts_us == 99.0
        assert snap.counters[N.WINDOW_OPS] == 7

    def test_export_without_audit_still_validates(self, tmp_path):
        r = ObsRecorder()
        r.inc(N.WINDOW_OPS, 3)
        r.end_window(0)
        r.event(N.EV_WINDOW, index=0)
        paths = r.export(str(tmp_path))
        assert validate_export(str(tmp_path)) == []
        assert sorted(paths) == ["events", "manifest", "metrics"]
        assert not (tmp_path / AUDIT_FILE).exists()
        manifest = json.loads((tmp_path / MANIFEST_FILE).read_text())
        assert manifest["windows"] == 1
        assert manifest["events_recorded"] == 1
        assert manifest["decisions"] == 0
        assert sorted(manifest["files"]) == [EVENTS_FILE, METRICS_FILE]

    def test_export_with_audit_header_includes_audit(self, tmp_path):
        r = ObsRecorder()
        r.audit.set_header({"seed": 1}, None, 4, 8)
        r.end_window(0)
        paths = r.export(str(tmp_path))
        assert "audit" in paths
        assert (tmp_path / AUDIT_FILE).exists()
        assert validate_export(str(tmp_path)) == []
