"""The lint engine: discovery, rules, suppressions, output.

``python -m repro.lint [paths]`` (default: the ``repro`` package) runs
one loop over the files: parse each, run the selected rules over its
tree, and filter the findings by the file's suppression comments::

    x = foo()  # lint: disable=RULE[,RULE2]     same line only
    # lint: disable-next=RULE                   the following line

Findings print as text; the gate is zero findings (exit 1 otherwise).
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.rules import ALL_RULES, Violation, rule_family

_DISABLE_MARKER = "# lint: disable="
_DISABLE_NEXT_MARKER = "# lint: disable-next="


class Suppressions:
    """Per-file suppression state parsed from the two comment forms."""

    def __init__(self, source: str) -> None:
        self.by_line: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            self._scan(line, lineno)

    @staticmethod
    def _ids_after(line: str, marker: str) -> Set[str]:
        start = line.find(marker)
        if start < 0:
            return set()
        spec = line[start + len(marker) :].split("#")[0]
        return {part.strip() for part in spec.split(",") if part.strip()}

    def _scan(self, line: str, lineno: int) -> None:
        # The two markers are mutually exclusive matches: the literal
        # "disable=" never occurs inside "disable-next=".
        same_line = self._ids_after(line, _DISABLE_MARKER)
        if same_line:
            self.by_line.setdefault(lineno, set()).update(same_line)
        next_line = self._ids_after(line, _DISABLE_NEXT_MARKER)
        if next_line:
            self.by_line.setdefault(lineno + 1, set()).update(next_line)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        return rule_id in self.by_line.get(line, ())


def _iter_python_files(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    seen: Set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if d not in ("__pycache__", ".git")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        candidate = os.path.join(dirpath, name)
                        key = os.path.abspath(candidate)
                        if key not in seen:
                            seen.add(key)
                            files.append(candidate)
        elif path.endswith(".py"):
            key = os.path.abspath(path)
            if key not in seen:
                seen.add(key)
                files.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return files


@dataclass
class LintResult:
    """Everything one engine run produced."""

    findings: List[Violation] = field(default_factory=list)
    #: What the suppression comments hid, so a gate can pin the inventory.
    suppressed: List[Violation] = field(default_factory=list)


class LintEngine:
    """Per-file lint over a set of files (see module docstring)."""

    def __init__(
        self,
        paths: Iterable[str],
        rule_ids: Optional[Sequence[str]] = None,
    ) -> None:
        self.paths = list(paths)
        self.rule_ids = list(rule_ids) if rule_ids is not None else None

    def run(self) -> LintResult:
        result = LintResult()
        checks = [
            check
            for rule_id, check in ALL_RULES.items()
            if self.rule_ids is None or rule_id in self.rule_ids
        ]
        for path in _iter_python_files(self.paths):
            try:
                with open(path, "rb") as fh:
                    source = fh.read().decode("utf-8", errors="replace")
            except OSError as exc:
                result.findings.append(Violation(path, 0, 0, "PARSE", str(exc)))
                continue
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                result.findings.append(
                    Violation(
                        path,
                        exc.lineno or 0,
                        exc.offset or 0,
                        "PARSE",
                        f"file does not parse: {exc.msg}",
                    )
                )
                continue
            suppressions = Suppressions(source)
            for check in checks:
                for v in check(tree, path):
                    hidden = suppressions.is_suppressed(v.rule_id, v.line)
                    (result.suppressed if hidden else result.findings).append(v)

        # Deterministic order across files.
        for findings in (result.findings, result.suppressed):
            findings.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
        return result


def lint_file(path: str, rule_ids: Optional[Sequence[str]] = None) -> List[Violation]:
    """Run the (selected) rules over one file, honoring suppressions."""
    return LintEngine([path], rule_ids).run().findings


# -- CLI ----------------------------------------------------------------------


def _default_target() -> str:
    """The installed ``repro`` package directory."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _expand_selection(spec: str) -> Tuple[Optional[List[str]], List[str]]:
    """Expand a ``--select`` spec of rule ids and family names.

    Returns ``(rule_ids, unknown_tokens)``; family tokens (``DET``,
    ``OWN``, ``SIM``, ...) expand to every rule in that family.
    """
    known_families = {rule_family(r) for r in ALL_RULES}
    rule_ids: List[str] = []
    unknown: List[str] = []
    for token in (t.strip() for t in spec.split(",")):
        if not token:
            continue
        if token in ALL_RULES:
            rule_ids.append(token)
        elif token in known_families:
            rule_ids.extend(
                sorted(r for r in ALL_RULES if rule_family(r) == token)
            )
        else:
            unknown.append(token)
    return rule_ids, unknown


def _list_rules() -> str:
    """The rule catalogue grouped by family, stable order, with each
    rule's docstring summary (its first paragraph, on one line)."""
    by_family: Dict[str, List[str]] = {}
    for rule_id in ALL_RULES:
        by_family.setdefault(rule_family(rule_id), []).append(rule_id)
    lines: List[str] = []
    for family in sorted(by_family):
        lines.append(f"{family}:")
        for rule_id in sorted(by_family[family]):
            doc = (ALL_RULES[rule_id].__doc__ or "").strip()
            summary = " ".join(doc.split("\n\n")[0].split())
            lines.append(f"  {rule_id}  {summary}")
        lines.append("")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis for the AdCache simulator "
            "(see docs/static_analysis.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--select",
        "--rules",
        dest="select",
        metavar="RULES",
        help="comma-separated rule ids and/or families to run "
        "(e.g. DET003,OWN or SIM; default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue grouped by family and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    rule_ids: Optional[List[str]] = None
    if args.select:
        rule_ids, unknown = _expand_selection(args.select)
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2

    paths = args.paths or [_default_target()]
    try:
        findings = LintEngine(paths, rule_ids).run().findings
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    for violation in findings:
        print(violation.render())
    if findings:
        print(f"\n{len(findings)} violation(s) found", file=sys.stderr)
        return 1
    return 0
