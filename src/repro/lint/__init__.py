"""repro-lint: static analysis for the simulator's own discipline.

A per-file lint engine (stdlib :mod:`ast` only — no third-party
dependency) enforcing the repository's simulation discipline on top of
what generic linters check.  Each file is parsed once and the rules in
:mod:`repro.lint.rules` run over its tree: determinism imports
(SIM001), scalar numpy indexing on the hot path (PERF001),
metric-name constants (OBS001), unordered float accumulation (DET003),
callback capture after a timer handoff (OWN003), shared-tier mutation
outside its owner (OWN004), plus mutable defaults (MUT001).

Run it with ``python -m repro.lint [paths]`` or ``repro lint``.
The gate is zero findings; a deliberate violation is suppressed where
it stands, with its reason, by ``# lint: disable=RULE`` (same line) or
``# lint: disable-next=RULE`` (following line).  See
``docs/static_analysis.md`` for the catalogue and the evidence that
sized it.
"""

from repro.lint.rules import ALL_RULES, Violation
from repro.lint.runner import LintEngine, lint_file, main

__all__ = [
    "ALL_RULES",
    "LintEngine",
    "Violation",
    "lint_file",
    "main",
]
