"""repro-lint: whole-program static analysis for the simulator.

A multi-pass lint engine (stdlib :mod:`ast` only — no third-party
dependency) enforcing the repository's simulation discipline on top of
what generic linters check.  Pass 1 parses every file into a
project-wide symbol table and call graph; pass 2 runs two rule sets
over it:

* **syntactic, per-module** (:mod:`repro.lint.rules`) — determinism
  imports (SIM001), metered disk reads (SIM002), sanitizer coverage
  (CACHE001), retry discipline (EXC002), hot-path numpy use (PERF001),
  metric-name constants (OBS001), plus generic hygiene (MUT001,
  EXC001, DET003, OWN003);
* **whole-program, flow-aware** (:mod:`repro.lint.passes`) — ambient
  nondeterminism reachable from serve/engine entry points through any
  number of cross-module calls (DET001), unordered set iteration
  flowing into ordering-sensitive sinks (DET002), module-level mutable
  state shared across serving components (OWN001), and global
  single-writer metric-counter ownership (OWN002).

Run it with ``python -m repro.lint [paths]`` or ``repro lint``.
The gate is zero findings; a deliberate violation is suppressed where
it stands, with its reason, by ``# lint: disable=RULE`` (same line) or
``# lint: disable-next=RULE`` (following line).  See
``docs/static_analysis.md`` for the full catalogue and workflow.
"""

from repro.lint.callgraph import CallGraph, build_call_graph
from repro.lint.passes import (
    WHOLE_PROGRAM_RULES,
    Project,
    build_project,
    run_whole_program_rules,
)
from repro.lint.rules import ALL_RULES, RULE_METADATA, Violation
from repro.lint.runner import LintEngine, lint_file, main
from repro.lint.symbols import SymbolTable, build_symbol_table

__all__ = [
    "ALL_RULES",
    "CallGraph",
    "LintEngine",
    "Project",
    "RULE_METADATA",
    "SymbolTable",
    "Violation",
    "WHOLE_PROGRAM_RULES",
    "build_call_graph",
    "build_project",
    "build_symbol_table",
    "lint_file",
    "main",
    "run_whole_program_rules",
]
