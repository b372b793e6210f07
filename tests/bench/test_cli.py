"""Command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

FAST = [
    "--num-keys", "400",
    "--cache-kb", "64",
    "--memtable-entries", "32",
    "--sstable-entries", "64",
]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.strategy == "adcache"
        assert args.workload == "balanced"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--strategy", "bogus"])


class TestCommands:
    def test_run_command(self, capsys):
        code = main(
            ["run", "--strategy", "block", "--workload", "point",
             "--ops", "300", "--warmup", "100", *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RocksDB (Block Cache)" in out
        assert "est. hit rate" in out

    def test_compare_command(self, capsys):
        code = main(
            ["compare", "--workload", "point", "--ops", "200",
             "--warmup", "100", *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AdCache" in out and "KV Cache" in out

    def test_phases_command(self, capsys):
        code = main(
            ["phases", "--strategy", "block", "--phases", "CD",
             "--ops-per-phase", "300", *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "C" in out and "D" in out

    def test_serve_command(self, capsys):
        code = main(
            ["serve", "--clients", "2", "--shards", "2", "--ops", "400",
             "--num-keys", "400", "--cache-kb", "64",
             "--memtable-entries", "32", "--sstable-entries", "64",
             "--window-size", "100", "--rebalance-every", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-tenant" in out
        assert "per-shard" in out
        assert "trace digest" in out

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.clients == 8
        assert args.shards == 4
        assert args.partition == "hash"

    def test_serve_rejects_bad_partition(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--partition", "bogus"])
