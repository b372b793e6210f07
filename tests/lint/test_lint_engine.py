"""The lint engine end to end: suppression forms, rule selection and
the rule catalogue listing."""

from repro.lint.runner import LintEngine, Suppressions, main

VIOLATION = "import random\n"


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return path


# -- suppression comment forms -----------------------------------------------


def test_disable_next_suppresses_following_line(tmp_path):
    path = _write(
        tmp_path, "f.py", "# lint: disable-next=SIM001\nimport random\n"
    )
    assert LintEngine([str(path)]).run().findings == []


def test_disable_next_does_not_leak_past_one_line(tmp_path):
    source = "# lint: disable-next=SIM001\nimport time\nimport random\n"
    path = _write(tmp_path, "f.py", source)
    findings = LintEngine([str(path)]).run().findings
    assert [(f.rule_id, f.line) for f in findings] == [("SIM001", 3)]


def test_disable_next_inside_multiline_construct(tmp_path):
    # The same-line form can't annotate a default argument buried in a
    # multi-line signature without touching that line; disable-next can.
    source = (
        "def f(\n"
        "    # lint: disable-next=MUT001\n"
        "    out=[],\n"
        "):\n"
        "    return out\n"
    )
    path = _write(tmp_path, "f.py", source)
    assert LintEngine([str(path)], ["MUT001"]).run().findings == []


def test_suppression_parser_forms():
    sup = Suppressions(
        "import x  # lint: disable=AAA001,BBB002\n"
        "# lint: disable-next=CCC003\n"
        "import y\n"
    )
    assert sup.is_suppressed("AAA001", 1)
    assert sup.is_suppressed("BBB002", 1)
    assert not sup.is_suppressed("CCC003", 2)
    assert sup.is_suppressed("CCC003", 3)
    assert not sup.is_suppressed("AAA001", 2)


# -- rule catalogue ----------------------------------------------------------


def test_list_rules_grouped_by_family(capsys):
    assert main(["--list-rules"]) == 0
    lines = capsys.readouterr().out.splitlines()
    headers = [ln for ln in lines if ln.endswith(":")]
    # Families are sorted and stable.
    assert headers == sorted(headers)
    assert "DET:" in headers and "OWN:" in headers
    # Within a family, rules are listed in id order with their summary.
    ids = [ln.split()[0] for ln in lines if ln.startswith("  ")]
    own = [i for i in ids if i.startswith("OWN")]
    assert own == sorted(own) == ["OWN003", "OWN004"]
    assert any(ln.startswith("  MUT001  No mutable default") for ln in lines)
    # Exactly the catalogue docs/static_analysis.md keeps.
    assert sorted(ids) == [
        "DET003", "MUT001", "OBS001", "OWN003", "OWN004",
        "PERF001", "SIM001",
    ]


def test_select_expands_families(tmp_path, capsys):
    path = _write(tmp_path, "f.py", VIOLATION)
    # The DET family alone does not include SIM001.
    assert main([str(path), "--select", "DET"]) == 0
    assert main([str(path), "--select", "SIM"]) == 1


def test_select_expands_a_family_to_its_remaining_members(tmp_path, capsys):
    source = (
        "def arm(loop, cache):\n"
        "    pending = []\n"
        "    loop.call_later(5.0, lambda: pending.append(1))\n"
        "    pending.append(2)\n"
        "    cache.tier2_resize(0)\n"
        "import random\n"
    )
    path = _write(tmp_path, "f.py", source)
    assert main([str(path), "--select", "OWN"]) == 1
    out = capsys.readouterr().out
    assert [ln.split()[1] for ln in out.splitlines()] == ["OWN003", "OWN004"]


def test_unknown_rule_selection_runs_nothing(tmp_path):
    path = _write(tmp_path, "f.py", VIOLATION)
    assert LintEngine([str(path)], ["NOPE999"]).run().findings == []


def test_select_rejects_unknown_tokens(tmp_path, capsys):
    path = _write(tmp_path, "f.py", VIOLATION)
    assert main([str(path), "--select", "BOGUS"]) == 2
    assert "unknown rule" in capsys.readouterr().err
