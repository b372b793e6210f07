"""repro-lint: every rule fires on a violating fixture, stays quiet on
suppressed/clean code, and the real source tree is violation-free."""

import os
import subprocess
import sys
from collections import Counter

import pytest

import repro
from repro.cli import main as repro_main
from repro.lint.rules import ALL_RULES
from repro.lint.runner import LintEngine, lint_file, main

REPRO_PKG = os.path.dirname(os.path.abspath(repro.__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(REPRO_PKG))


def _lint_source(tmp_path, source, select=None):
    path = tmp_path / "fixture.py"
    path.write_text(source)
    return lint_file(str(path), select)


def _lint_files(tmp_path, files, select):
    for name, source in files.items():
        (tmp_path / name).write_text(source)
    return LintEngine([str(tmp_path)], select).run().findings


def _rule_ids(findings):
    return [f.rule_id for f in findings]


# -- SIM001 ------------------------------------------------------------------


def test_sim001_flags_import_random(tmp_path):
    findings = _lint_source(tmp_path, "import random\n", ["SIM001"])
    assert _rule_ids(findings) == ["SIM001"]
    assert "seeded Random" in findings[0].message


def test_sim001_flags_time_and_datetime(tmp_path):
    source = "import time\nimport datetime\nfrom time import sleep\n"
    findings = _lint_source(tmp_path, source, ["SIM001"])
    assert _rule_ids(findings) == ["SIM001"] * 3
    assert [f.line for f in findings] == [1, 2, 3]


def test_sim001_allows_from_random_import_Random(tmp_path):
    source = "from random import Random\nrng = Random(7)\n"
    assert _lint_source(tmp_path, source, ["SIM001"]) == []


def test_sim001_flags_other_from_random_names(tmp_path):
    findings = _lint_source(tmp_path, "from random import randint\n", ["SIM001"])
    assert _rule_ids(findings) == ["SIM001"]


def test_sim001_ignores_relative_and_lookalike_imports(tmp_path):
    source = "from .random import helper\nimport numpy.random\n"
    # Relative imports never hit stdlib; numpy.random is seeded-generator
    # territory, not the ambient stdlib module.
    findings = _lint_source(tmp_path, source, ["SIM001"])
    assert findings == []


# -- MUT001 ------------------------------------------------------------------


def test_mut001_flags_mutable_defaults(tmp_path):
    source = (
        "def f(out=[]):\n    pass\n"
        "def g(*, acc=dict()):\n    pass\n"
        "def h(x=None):\n    pass\n"
    )
    findings = _lint_source(tmp_path, source, ["MUT001"])
    assert _rule_ids(findings) == ["MUT001", "MUT001"]


# -- PERF001 -----------------------------------------------------------------


_PERF001_HOT = (
    "import numpy as np\n"
    "def estimate(key):  # hot-path\n"
    "    rows = np.zeros(4, dtype=np.int64)\n"
    "    return rows[0] + rows[1]\n"
)


def test_perf001_flags_scalar_numpy_index_in_hot_path(tmp_path):
    findings = _lint_source(tmp_path, _PERF001_HOT, ["PERF001"])
    assert _rule_ids(findings) == ["PERF001", "PERF001"]
    assert "hot-path function estimate()" in findings[0].message


def test_perf001_ignores_unmarked_functions(tmp_path):
    source = _PERF001_HOT.replace("  # hot-path", "")
    assert _lint_source(tmp_path, source, ["PERF001"]) == []


def test_perf001_ignores_slices_and_plain_lists(tmp_path):
    source = (
        "import numpy as np\n"
        "def estimate(key):  # hot-path\n"
        "    rows = np.zeros(4)\n"
        "    head = rows[:2]\n"  # slicing stays vectorised
        "    plain = [1, 2, 3]\n"
        "    return plain[0], head.sum()\n"
    )
    assert _lint_source(tmp_path, source, ["PERF001"]) == []


def test_perf001_marker_on_multiline_signature(tmp_path):
    source = (
        "import numpy as np\n"
        "def estimate(\n"
        "    key,\n"
        "):  # hot-path\n"
        "    rows = np.zeros(4)\n"
        "    return rows[key]\n"
    )
    findings = _lint_source(tmp_path, source, ["PERF001"])
    assert _rule_ids(findings) == ["PERF001"]


def test_perf001_ignores_row_and_column_views(tmp_path):
    source = (
        "import numpy as np\n"
        "def fold(n):  # hot-path\n"
        "    buf = np.zeros((4, n))\n"
        "    for pos in range(n):\n"
        "        col = buf[:, pos]\n"  # column view, stays vectorised
        "        buf[0, :2] = col[:2]\n"  # row view store
        "    return buf\n"
    )
    assert _lint_source(tmp_path, source, ["PERF001"]) == []


# -- OBS001 ------------------------------------------------------------------


def test_obs001_flags_inline_string_metric_names(tmp_path):
    source = (
        "def instrument(recorder):\n"
        "    recorder.metrics.inc('window.ops')\n"
        "    recorder.metrics.set_gauge('reward', 0.5)\n"
        "    recorder.metrics.observe('scan.admitted', 12)\n"
        "    recorder.event('flush', sst=3)\n"
    )
    findings = _lint_source(tmp_path, source, ["OBS001"])
    assert _rule_ids(findings) == ["OBS001"] * 4
    assert "'window.ops'" in findings[0].message
    assert "repro.obs.names" in findings[0].message


def test_obs001_accepts_registered_constants(tmp_path):
    source = (
        "from repro.obs import names as N\n"
        "def instrument(recorder, count):\n"
        "    recorder.metrics.inc(N.WINDOW_OPS, count)\n"
        "    recorder.event(N.EV_FLUSH, sst=3)\n"
    )
    assert _lint_source(tmp_path, source, ["OBS001"]) == []


def test_obs001_ignores_unrelated_methods_and_values(tmp_path):
    source = (
        "def mixed(hist, mapping, name):\n"
        "    hist.observe(12.5)\n"  # non-string first arg
        "    mapping.get('key')\n"  # method not in the recording set
        "    hist.observe(name)\n"  # variable, resolvable to a constant
    )
    assert _lint_source(tmp_path, source, ["OBS001"]) == []


# -- DET003 ------------------------------------------------------------------


def test_det003_flags_accumulation_over_set(tmp_path):
    source = (
        "def audit(samples):\n"
        "    vals = set(samples)\n"
        "    total_mass = 0.0\n"
        "    for v in vals:\n"
        "        total_mass += v\n"
        "    return total_mass\n"
    )
    findings = _lint_source(tmp_path, source, ["DET003"])
    assert _rule_ids(findings) == ["DET003"]
    assert "total_mass" in findings[0].message


def test_det003_quiet_when_sorted(tmp_path):
    source = (
        "def audit(samples):\n"
        "    vals = set(samples)\n"
        "    total_mass = 0.0\n"
        "    for v in sorted(vals):\n"
        "        total_mass += v\n"
        "    return total_mass\n"
    )
    assert _lint_source(tmp_path, source, ["DET003"]) == []


def test_det003_flags_sum_over_set_display(tmp_path):
    source = "def f(xs):\n    return sum({x * 0.5 for x in xs})\n"
    findings = _lint_source(tmp_path, source, ["DET003"])
    assert _rule_ids(findings) == ["DET003"]


# -- OWN003 ------------------------------------------------------------------


def test_own003_flags_mutation_after_timer_handoff(tmp_path):
    source = (
        "def arm(loop):\n"
        "    pending = []\n"
        "    loop.call_later(5.0, lambda: pending.append(1))\n"
        "    pending.append(2)\n"
    )
    findings = _lint_source(tmp_path, source, ["OWN003"])
    assert _rule_ids(findings) == ["OWN003"]
    assert findings[0].line == 3
    assert "'pending'" in findings[0].message
    assert "snapshot" in findings[0].message


def test_own003_quiet_when_mutation_precedes_handoff(tmp_path):
    source = (
        "def arm(loop):\n"
        "    pending = []\n"
        "    pending.append(2)\n"
        "    loop.call_later(5.0, lambda: pending.append(1))\n"
    )
    assert _lint_source(tmp_path, source, ["OWN003"]) == []


# -- OWN004 ------------------------------------------------------------------

_TIER2_SOURCE = (
    "class Tier2Cache:\n"
    "    def tier2_probe(self, key):\n"
    "        return None\n"
    "    def tier2_offer(self, key, block):\n"
    "        return self.tier2_probe(key) is None\n"
)

_TIER2_SHORTCUT = (
    "def sneaky_fill(cache, key, block):\n"
    "    return cache.tier2_offer(key, block)\n"
)


def test_own004_flags_tier2_mutation_outside_owner_modules(tmp_path):
    findings = _lint_files(
        tmp_path,
        {"tier2.py": _TIER2_SOURCE, "shortcut.py": _TIER2_SHORTCUT},
        ["OWN004"],
    )
    assert _rule_ids(findings) == ["OWN004"]
    assert findings[0].path.endswith("shortcut.py")
    assert findings[0].line == 2
    assert "tier2_offer" in findings[0].message
    assert "Tier2Coordinator" in findings[0].message


def test_own004_quiet_inside_the_tier_modules(tmp_path):
    # The cache's own module (and the serve coordinator module, also
    # named tier2.py) may call the mutators freely.
    assert _lint_files(tmp_path, {"tier2.py": _TIER2_SOURCE}, ["OWN004"]) == []


def test_own004_exempts_test_modules(tmp_path):
    files = {"test_l2.py": _TIER2_SHORTCUT, "conftest.py": _TIER2_SHORTCUT}
    assert _lint_files(tmp_path, files, ["OWN004"]) == []


# -- disable comments and runner behaviour -----------------------------------


def test_disable_comment_suppresses_one_line(tmp_path):
    source = "import random  # lint: disable=SIM001\nimport time\n"
    findings = _lint_source(tmp_path, source, ["SIM001"])
    assert [f.line for f in findings] == [2]


def test_disable_comment_is_rule_specific(tmp_path):
    source = "import random  # lint: disable=MUT001\n"
    findings = _lint_source(tmp_path, source, ["SIM001"])
    assert _rule_ids(findings) == ["SIM001"]


def test_disable_comment_takes_multiple_rules(tmp_path):
    source = "def f(out=[]):  # lint: disable=MUT001,OBS001\n    pass\n"
    assert _lint_source(tmp_path, source, ["MUT001"]) == []


def test_syntax_error_reported_as_parse_finding(tmp_path):
    findings = _lint_source(tmp_path, "def broken(:\n")
    assert _rule_ids(findings) == ["PARSE"]


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(bad)]) == 1
    assert "SIM001" in capsys.readouterr().out
    assert main([str(clean)]) == 0
    assert main(["--select", "NOPE", str(clean)]) == 2
    assert main([str(tmp_path / "missing_dir")]) == 2


def test_list_rules_documents_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULES:
        assert rule_id in out
        assert ALL_RULES[rule_id].__doc__  # every rule is documented


def test_source_tree_is_lint_clean():
    # The roots CI lints (``python -m repro.lint src tests``).  The gate
    # is zero findings, and every finding a suppression comment hides is
    # pinned here, so a new ``# lint: disable`` is a reviewed diff.
    result = LintEngine(
        [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tests")]
    ).run()
    assert result.findings == [], "\n".join(f.render() for f in result.findings)
    inventory = Counter(
        (v.rule_id, os.path.relpath(v.path, REPO_ROOT).replace(os.sep, "/"))
        for v in result.suppressed
    )
    assert inventory == {
        ("OBS001", "tests/obs/test_metrics.py"): 1,
        ("OBS001", "tests/obs/test_recorder.py"): 4,
    }


@pytest.mark.parametrize("runner", ["module", "cli"])
def test_command_line_entrypoints(tmp_path, runner):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    env = dict(os.environ)
    src_dir = os.path.dirname(REPRO_PKG)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    argv = (
        [sys.executable, "-m", "repro.lint", str(bad)]
        if runner == "module"
        else [sys.executable, "-m", "repro", "lint", str(bad)]
    )
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "SIM001" in proc.stdout


@pytest.mark.parametrize("case", ["violation", "list-rules"])
def test_repro_lint_forwards_argv_verbatim(tmp_path, capsys, case):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    argv = [str(bad)] if case == "violation" else ["--list-rules"]
    module_code = main(argv)
    module_out = capsys.readouterr().out
    cli_code = repro_main(["lint", *argv])
    cli_out = capsys.readouterr().out
    assert cli_code == module_code == (1 if case == "violation" else 0)
    assert cli_out == module_out != ""
