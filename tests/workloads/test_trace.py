"""Workload trace recording and replay."""

from __future__ import annotations

import pytest

from repro.bench.harness import seed_database
from repro.bench.strategies import build_engine
from repro.errors import ConfigError
from repro.lsm.options import LSMOptions
from repro.workloads.generator import Operation, WorkloadGenerator, balanced_workload
from repro.workloads.keys import key_of
from repro.workloads.trace import load_trace, record_trace, replay_trace


class TestRoundTrip:
    def test_all_kinds_roundtrip(self, tmp_path):
        ops = [
            Operation("get", "k1"),
            Operation("scan", "k2", length=16),
            Operation("put", "k3", value="some value with spaces"),
            Operation("delete", "k4"),
        ]
        path = tmp_path / "ops.trace"
        assert record_trace(ops, path) == 4
        assert load_trace(path) == ops

    def test_generated_workload_roundtrip(self, tmp_path):
        gen = WorkloadGenerator(balanced_workload(100), seed=3)
        ops = list(gen.ops(200))
        path = tmp_path / "w.trace"
        record_trace(ops, path)
        assert load_trace(path) == ops

    def test_replay_is_lazy(self, tmp_path):
        path = tmp_path / "lazy.trace"
        record_trace([Operation("get", "k")] * 10, path)
        it = replay_trace(path)
        assert next(it) == Operation("get", "k")

    def test_empty_put_value(self, tmp_path):
        path = tmp_path / "e.trace"
        record_trace([Operation("put", "k", value="")], path)
        assert load_trace(path) == [Operation("put", "k", value="")]

    def test_bad_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("x k1\n")
        with pytest.raises(ConfigError):
            load_trace(path)
        path.write_text("s k1\n")  # scan without length
        with pytest.raises(ConfigError):
            load_trace(path)

    def test_newline_in_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            record_trace(
                [Operation("put", "k", value="a\nb")], tmp_path / "nl.trace"
            )


class TestTracingSink:
    def test_replayed_trace_reproduces_engine_state(self, tmp_path):
        """Replaying a recorded trace on a fresh engine yields the same
        final answers — the pretraining-data guarantee."""
        from repro.bench.harness import apply_operation

        opts = LSMOptions(memtable_entries=32, entries_per_sstable=64)
        gen = WorkloadGenerator(balanced_workload(300), seed=9)
        ops = list(gen.ops(600))
        path = tmp_path / "repro.trace"
        record_trace(ops, path)

        tree_a = seed_database(300, opts)
        engine_a = build_engine("block", tree_a, cache_bytes=64 * 1024)
        for op in ops:
            apply_operation(engine_a, op)

        tree_b = seed_database(300, opts)
        engine_b = build_engine("block", tree_b, cache_bytes=64 * 1024)
        for op in replay_trace(path):
            apply_operation(engine_b, op)

        for i in range(0, 300, 23):
            assert engine_a.get(key_of(i)) == engine_b.get(key_of(i))


class TestUnreplayableOperations:
    """The writer refuses what the reader would load as another op."""

    @pytest.mark.parametrize(
        "op",
        [
            Operation("get", "a b"),
            Operation("put", "p q", value="v"),
            Operation("scan", "s t", length=4),
            Operation("delete", "tab\tkey"),
            Operation("get", ""),
        ],
        ids=["get-space", "put-space", "scan-space", "delete-tab", "empty"],
    )
    def test_bad_key_rejected_with_lineno(self, tmp_path, op):
        path = tmp_path / "bad.trace"
        with pytest.raises(ConfigError, match="whitespace-free.*trace line 2"):
            record_trace([Operation("get", "k0"), op], path)

    def test_line_break_in_value_rejected_with_lineno(self, tmp_path):
        with pytest.raises(ConfigError, match="trace line 1"):
            record_trace(
                [Operation("put", "k", value="a\rb")], tmp_path / "cr.trace"
            )

    @pytest.mark.parametrize("code", ["g", "d"])
    def test_extra_field_rejected_with_lineno(self, tmp_path, code):
        path = tmp_path / "extra.trace"
        path.write_text(f"g k0\n{code} k1 junk\n")
        with pytest.raises(ConfigError, match="extra field on trace line 2"):
            load_trace(path)


class TestMalformedLines:
    """Satellite: every decode error carries the 1-based line number."""

    def test_unknown_code_lineno(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("g k1\ng k2\nx k3\n")
        with pytest.raises(ConfigError, match="bad trace line 3"):
            load_trace(path)

    def test_missing_key_lineno(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("g\n")
        with pytest.raises(ConfigError, match="bad trace line 1"):
            load_trace(path)

    def test_scan_without_length_lineno(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("g k1\ns k2\n")
        with pytest.raises(ConfigError, match="bad scan line 2"):
            load_trace(path)

    def test_non_numeric_scan_length_lineno(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("g k1\ng k2\ns k3 sixteen\n")
        with pytest.raises(
            ConfigError, match="bad scan length on trace line 3"
        ):
            load_trace(path)

    def test_blank_lines_do_not_shift_linenos(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("g k1\n\n\nx k2\n")
        with pytest.raises(ConfigError, match="bad trace line 4"):
            load_trace(path)
