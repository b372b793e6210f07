"""Self-tests of the benchmark; not part of tier-1 (``testpaths = tests``).

    python -m pytest benchmarks/perf/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(PERF)]


@pytest.fixture(scope="session")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="session")
def quick_report(tmp_path_factory) -> dict:
    """One ``--quick`` run of every workload, shared by the smoke tests."""
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--quick", "--json", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    report = json.loads(out.read_text())
    report["stdout"] = done.stdout
    return report
