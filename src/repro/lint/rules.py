"""Lint rules: per-module simulation discipline + hygiene.

Each rule is a function from a parsed module to an iterator of
:class:`Violation` s, registered under a stable rule id via the
:func:`rule` decorator.  Rule docstrings are the user-facing
documentation (``python -m repro.lint --list-rules`` prints their
first paragraphs).  Every rule sees one file at a time.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Modules whose ambient state would break run-to-run determinism.
_NONDETERMINISTIC_MODULES = ("random", "time", "datetime")

#: Comment marker naming the simulator's per-op functions (PERF001).
_HOT_PATH_MARKER = "# hot-path"

#: Names numpy is imported as (PERF001).
_NUMPY_ALIASES = ("np", "numpy")

#: Recording methods whose first argument must be a registered
#: metric/event-kind constant from :mod:`repro.obs.names` (OBS001).
_OBS_RECORDING_METHODS = ("inc", "set_gauge", "observe", "event")


@dataclass(frozen=True)
class Violation:
    """One lint finding, pointing at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """``path:line:col: RULE message`` (editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


RuleFunc = Callable[[ast.Module, str], Iterator[Violation]]

#: Registry of ``rule_id -> checker`` in registration order.
ALL_RULES: Dict[str, RuleFunc] = {}


def rule_family(rule_id: str) -> str:
    """``DET003`` -> ``DET``: the catalogue family prefix."""
    return rule_id.rstrip("0123456789")


def rule(rule_id: str) -> Callable[[RuleFunc], RuleFunc]:
    """Register a checker under ``rule_id``."""

    def register(func: RuleFunc) -> RuleFunc:
        ALL_RULES[rule_id] = func
        return func

    return register


@rule("SIM001")
def check_nondeterministic_imports(
    tree: ast.Module, path: str
) -> Iterator[Violation]:
    """Ban ambient nondeterminism: no ``random``/``time``/``datetime``.

    Determinism is the simulator's core property: the same seed must
    reproduce a run byte-for-byte.  Randomness therefore flows through
    per-instance seeded ``random.Random`` objects (``from random import
    Random`` is the one sanctioned form) or ``numpy`` generators, and
    simulated time through the sim clock's cost model — never through
    the wall clock.  Importing these modules wholesale makes the easy
    path (``random.random()``, ``time.time()``) the wrong one.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _NONDETERMINISTIC_MODULES:
                    yield Violation(
                        path,
                        node.lineno,
                        node.col_offset,
                        "SIM001",
                        f"import of {alias.name!r} invites ambient "
                        f"nondeterminism; inject a seeded Random (from "
                        f"random import Random) or use the sim clock",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative imports never target stdlib
                continue
            root = (node.module or "").split(".")[0]
            if root == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield Violation(
                            path,
                            node.lineno,
                            node.col_offset,
                            "SIM001",
                            f"from random import {alias.name} bypasses "
                            f"seeded-instance discipline; import only "
                            f"Random and seed it explicitly",
                        )
            elif root in ("time", "datetime"):
                yield Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    "SIM001",
                    f"import from {root!r} reads the wall clock; "
                    f"simulated time must come from the sim clock",
                )


@rule("MUT001")
def check_mutable_default_args(tree: ast.Module, path: str) -> Iterator[Violation]:
    """No mutable default arguments.

    A ``list``/``dict``/``set`` default is evaluated once at definition
    time and shared across calls — classic state leakage between
    supposedly independent simulator components.  Use ``None`` and
    construct inside the function.
    """
    mutable_calls = {"list", "dict", "set"}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            is_mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in mutable_calls
            )
            if is_mutable:
                yield Violation(
                    path,
                    default.lineno,
                    default.col_offset,
                    "MUT001",
                    f"mutable default argument in {node.name}(); use None "
                    f"and construct inside the body",
                )


def _hot_path_functions(
    tree: ast.Module, source_lines: List[str]
) -> Iterator[ast.FunctionDef]:
    """Functions whose signature carries the ``# hot-path`` marker.

    The marker is a comment (invisible to the AST), so the signature's
    source lines — from the ``def`` up to the first body statement —
    are scanned textually.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        body_start = node.body[0].lineno if node.body else node.lineno + 1
        for lineno in range(node.lineno, body_start):
            if (
                lineno <= len(source_lines)
                and _HOT_PATH_MARKER in source_lines[lineno - 1]
            ):
                yield node
                break


@rule("PERF001")
def check_hot_path_numpy_indexing(
    tree: ast.Module, path: str
) -> Iterator[Violation]:
    """No per-element numpy indexing inside ``# hot-path`` functions.

    Subscripting a numpy array with a scalar builds a numpy scalar
    object per access — roughly two orders of magnitude slower than a
    plain-list index, and the exact pattern the CountMinSketch rewrite
    removed from the admission path.  Inside a function marked
    ``# hot-path``, any scalar subscript of a name bound to a
    ``np.*(...)``/``numpy.*(...)`` call is flagged: keep arrays for the
    vectorised math and convert to plain ints/lists before per-element
    loops.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source_lines = fh.read().splitlines()
    except OSError:
        return
    for func in _hot_path_functions(tree, source_lines):
        numpy_names = set()
        for sub in ast.walk(func):
            if not (isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call)):
                continue
            call = sub.value.func
            root = call
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in _NUMPY_ALIASES):
                continue
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    numpy_names.add(target.id)
                elif isinstance(target, ast.Tuple):
                    numpy_names.update(
                        el.id for el in target.elts if isinstance(el, ast.Name)
                    )
        if not numpy_names:
            continue
        for sub in ast.walk(func):
            if not isinstance(sub, ast.Subscript):
                continue
            if not (
                isinstance(sub.value, ast.Name) and sub.value.id in numpy_names
            ):
                continue
            if isinstance(sub.slice, ast.Slice):
                continue  # slicing stays vectorised; only scalars pay per-element
            if isinstance(sub.slice, ast.Tuple) and any(
                isinstance(el, ast.Slice) for el in sub.slice.elts
            ):
                continue  # row/column views like a[i, :] or a[:, j] are
                # vectorised too — the result is an array, not a numpy scalar
            yield Violation(
                path,
                sub.lineno,
                sub.col_offset,
                "PERF001",
                f"scalar index into numpy array {sub.value.id!r} inside "
                f"hot-path function {func.name}(); per-element numpy access "
                f"is ~100x a list index — convert to plain ints/lists first",
            )


@rule("OBS001")
def check_obs_metric_constants(tree: ast.Module, path: str) -> Iterator[Violation]:
    """Instrumentation sites must use registered metric-name constants.

    The obs registry rejects unregistered names at runtime, but only on
    the instrumented path — an inline string literal passed to
    ``inc``/``set_gauge``/``observe``/``event`` can sit dormant (typo'd,
    unregistered, drifting from the exporter's schema) until that branch
    finally executes.  Recording calls must therefore pass the constants
    defined in :mod:`repro.obs.names` (``N.WINDOW_OPS``,
    ``N.EV_FLUSH``, ...), which are checked at import time and keep
    every call site greppable by constant name.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _OBS_RECORDING_METHODS
        ):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            yield Violation(
                path,
                first.lineno,
                first.col_offset,
                "OBS001",
                f"inline string {first.value!r} passed to .{func.attr}(); "
                f"instrumentation must use the registered constants in "
                f"repro.obs.names",
            )


def _unordered_set_locals(func: ast.AST) -> "set[str]":
    """Local names bound to unordered set expressions in a function.

    Tracks ``x = {...}`` set displays, set comprehensions, and
    ``set(...)``/``frozenset(...)`` constructor calls.
    """
    names: set[str] = set()
    for sub in ast.walk(func):
        if not isinstance(sub, ast.Assign):
            continue
        value = sub.value
        is_set = isinstance(value, (ast.Set, ast.SetComp)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
        )
        if not is_set:
            continue
        for target in sub.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


#: Accumulator names that look like audited statistics (DET003).
_STAT_ACC_RE = re.compile(r"(total|sum|acc|stat|mean|mass|weight)", re.IGNORECASE)


@rule("DET003")
def check_unordered_float_accumulation(
    tree: ast.Module, path: str
) -> Iterator[Violation]:
    """No float accumulation over unordered ``set`` iteration on
    audited statistics.

    Float addition is not associative: summing the same values in a
    different order produces different low bits, and ``set`` iteration
    order varies with insertion history and hash randomization.  An
    audited stat (``*_total``, ``*_sum``, ``*_mean``, ...) accumulated
    with ``+=`` inside a ``for`` over a set — or built with ``sum()``
    over a set expression — can therefore differ bit-for-bit between
    two runs that touched identical data.  Iterate ``sorted(...)`` so
    the reduction order is pinned.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        unordered = _unordered_set_locals(node)

        def _is_unordered(expr: ast.expr) -> bool:
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return True
            if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
                return expr.func.id in ("set", "frozenset")
            return isinstance(expr, ast.Name) and expr.id in unordered

        for sub in ast.walk(node):
            if isinstance(sub, ast.For) and _is_unordered(sub.iter):
                for inner in ast.walk(sub):
                    if not isinstance(inner, ast.AugAssign):
                        continue
                    if not isinstance(inner.op, (ast.Add, ast.Sub)):
                        continue
                    target = inner.target
                    name = (
                        target.attr
                        if isinstance(target, ast.Attribute)
                        else target.id if isinstance(target, ast.Name) else ""
                    )
                    if _STAT_ACC_RE.search(name):
                        yield Violation(
                            path,
                            inner.lineno,
                            inner.col_offset,
                            "DET003",
                            f"float accumulation onto {name!r} iterates a "
                            f"set in unspecified order; sum in sorted() "
                            f"order so audited stats reproduce bit-for-bit",
                        )
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "sum"
                and sub.args
                and _is_unordered(sub.args[0])
            ):
                yield Violation(
                    path,
                    sub.lineno,
                    sub.col_offset,
                    "DET003",
                    "sum() over an unordered set accumulates floats in "
                    "unspecified order; sum over sorted(...) instead",
                )


#: Attribute names that hand a callback to a timer/scheduler (OWN003).
_HANDOFF_ATTRS = ("after", "at", "call_later", "call_at", "defer")
_HANDOFF_ATTR_RE = re.compile(r"(schedule|timer|hedge)", re.IGNORECASE)

#: Method calls that mutate their receiver in place (OWN003).
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "update",
        "add", "discard", "setdefault", "popitem", "appendleft", "popleft",
        "sort", "reverse",
    }
)


def _is_handoff_call(node: ast.Call) -> bool:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    return func.attr in _HANDOFF_ATTRS or bool(_HANDOFF_ATTR_RE.search(func.attr))


def _callback_free_names(callback: ast.AST) -> "set[str]":
    """Names a lambda/nested-def reads that it does not itself bind."""
    if isinstance(callback, ast.Lambda):
        params = {a.arg for a in callback.args.args + callback.args.kwonlyargs}
        body: List[ast.AST] = [callback.body]
    elif isinstance(callback, (ast.FunctionDef, ast.AsyncFunctionDef)):
        params = {a.arg for a in callback.args.args + callback.args.kwonlyargs}
        body = list(callback.body)
    else:
        return set()
    bound = set(params)
    loads: "set[str]" = set()
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name):
                if isinstance(sub.ctx, ast.Store):
                    bound.add(sub.id)
                elif isinstance(sub.ctx, ast.Load):
                    loads.add(sub.id)
    return {name for name in loads - bound if name != "self"}


def _nested_node_ids(func: ast.AST) -> "set[int]":
    """ids of every node living inside a nested def/lambda of ``func``."""
    nested: "set[int]" = set()
    for sub in ast.walk(func):
        if sub is func:
            continue
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            nested.update(id(n) for n in ast.walk(sub) if n is not sub)
    return nested


def _mutations_after(
    func: ast.AST, names: "set[str]", after_line: int
) -> Iterator[Tuple[str, int]]:
    """(name, line) pairs where a captured name is mutated past handoff.

    Only the enclosing function's own straight-line code counts:
    mutations inside *other* nested callbacks are their own handoff's
    concern, not evidence that this caller races its timer.
    """
    nested = _nested_node_ids(func)
    for sub in ast.walk(func):
        if id(sub) in nested:
            continue
        line = getattr(sub, "lineno", 0)
        if line <= after_line:
            continue
        if isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = (
                list(sub.targets)
                if isinstance(sub, ast.Assign)
                else [sub.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in names:
                    yield target.id, line
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in names
                ):
                    yield target.value.id, line
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _MUTATOR_METHODS
            and isinstance(sub.func.value, ast.Name)
            and sub.func.value.id in names
        ):
            yield sub.func.value.id, line


@rule("OWN003")
def check_callback_capture_after_handoff(
    tree: ast.Module, path: str
) -> Iterator[Violation]:
    """Callbacks handed to timers/hedges must not capture state the
    caller keeps mutating.

    A lambda or closure passed to ``after()``/``at()``/
    ``schedule*``/``*timer*``/``*hedge*`` runs later, on the event
    loop's schedule — but it closes over the caller's variables by
    *reference*.  If the caller rebinds or mutates a captured variable
    after the handoff, the callback observes whichever state the race
    happens to produce; under process executors the copies additionally
    diverge.  Pass a snapshot (bind current values as defaults or
    arguments) instead of mutating a captured object.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local_defs = {
            stmt.name: stmt
            for stmt in ast.walk(node)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt is not node
        }
        nested = _nested_node_ids(node)
        for sub in ast.walk(node):
            if id(sub) in nested:
                continue  # a nested def owns its own handoffs
            if not (isinstance(sub, ast.Call) and _is_handoff_call(sub)):
                continue
            for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                callback: Optional[ast.AST] = None
                if isinstance(arg, ast.Lambda):
                    callback = arg
                elif isinstance(arg, ast.Name) and arg.id in local_defs:
                    callback = local_defs[arg.id]
                if callback is None:
                    continue
                free = _callback_free_names(callback)
                if not free:
                    continue
                end_line = max(
                    (getattr(s, "lineno", sub.lineno) for s in ast.walk(sub)),
                    default=sub.lineno,
                )
                flagged: set[str] = set()
                for name, line in _mutations_after(node, free, end_line):
                    if name in flagged:
                        continue
                    flagged.add(name)
                    yield Violation(
                        path,
                        sub.lineno,
                        sub.col_offset,
                        "OWN003",
                        f"callback handed off at line {sub.lineno} captures "
                        f"{name!r}, which is mutated afterwards (line "
                        f"{line}); the timer observes racy state — pass a "
                        f"snapshot instead",
                    )


#: The shared tier's owner modules: the cache itself and the serve
#: loop's coordinator are both ``tier2.py`` (OWN004).
_TIER2_OWNER_FILE = "tier2.py"


@rule("OWN004")
def check_tier2_mutation_ownership(
    tree: ast.Module, path: str
) -> Iterator[Violation]:
    """Fleet-shared Tier2 state may only be mutated through its owning
    component on the serve event loop.

    The second cache tier is the one mutable structure every shard
    aliases, so its determinism story leans entirely on single-writer
    ordering: all probes, offers, resizes, and shard purges flow
    through the ``Tier2Coordinator`` inside loop callbacks.  A stray
    ``tier2_*`` call from an engine, a session, or the arbiter would
    mutate shared state outside that ordering (and skip the
    coordinator's sanitizer hook) — correct-looking today,
    nondeterministic the moment call order shifts.  Any ``*.tier2_*()``
    call outside a ``tier2.py`` module is flagged; test modules
    (``test_*``/``conftest``) are exempt.  Fix by routing the mutation
    through the coordinator's surface (``probe`` / ``offer`` /
    ``set_budget`` / ``replace_shard``).
    """
    name = os.path.basename(path)
    if name in (_TIER2_OWNER_FILE, "conftest.py") or name.startswith("test_"):
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr.startswith("tier2_")
        ):
            yield Violation(
                path,
                node.lineno,
                node.col_offset,
                "OWN004",
                f"shared-tier mutator {node.func.attr}() called outside "
                f"tier2.py; Tier2 state is single-writer — route the "
                f"mutation through the serve loop's Tier2Coordinator",
            )
