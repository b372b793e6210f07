"""Syntactic lint rules: per-module simulation discipline + hygiene.

Each rule is a function from a parsed module to an iterator of
:class:`Violation` s, registered under a stable rule id via the
:func:`rule` decorator.  Rule docstrings are the user-facing
documentation (``python -m repro.lint --list-rules`` prints them).

These rules see one file at a time.  The whole-program rule families
(DET0xx nondeterminism taint, OWN0xx shared-state ownership) live in
:mod:`repro.lint.passes` and run over the project symbol table and
call graph instead; both registries share the :class:`RuleMeta`
catalogue here so ``--list-rules`` and ``--select`` treat them
uniformly.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Modules whose ambient state would break run-to-run determinism.
_NONDETERMINISTIC_MODULES = ("random", "time", "datetime")

#: Comment marker naming the simulator's per-op functions (PERF001).
_HOT_PATH_MARKER = "# hot-path"

#: Names numpy is imported as (PERF001).
_NUMPY_ALIASES = ("np", "numpy")

#: Counters a metered disk read path must charge (SIM002).
_METER_COUNTERS = ("block_reads_total", "bytes_read_total")

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

#: Registry of ``rule_id -> checker`` in registration order (the
#: per-module, syntactic rules only).
ALL_RULES: Dict[str, RuleFunc] = {}

#: Analysis scope markers shown by ``--list-rules``.
SCOPE_SYNTACTIC = "syntactic"
SCOPE_WHOLE_PROGRAM = "whole-program"


@dataclass(frozen=True)
class RuleMeta:
    """Catalogue entry for one rule, syntactic or whole-program."""

    rule_id: str
    family: str
    scope: str
    doc: str

    @property
    def summary(self) -> str:
        """First docstring line, for compact listings."""
        return self.doc.strip().splitlines()[0] if self.doc else ""


#: Every known rule's metadata, both registries (id -> meta).
RULE_METADATA: Dict[str, RuleMeta] = {}


def rule_family(rule_id: str) -> str:
    """``DET001`` -> ``DET``: the catalogue family prefix."""
    return rule_id.rstrip("0123456789")


def register_meta(rule_id: str, scope: str, doc: str) -> None:
    """Add a rule to the shared catalogue (used by both registries)."""
    RULE_METADATA[rule_id] = RuleMeta(
        rule_id, rule_family(rule_id), scope, (doc or "").strip()
    )


def rule(rule_id: str) -> Callable[[RuleFunc], RuleFunc]:
    """Register a syntactic (per-module) checker under ``rule_id``."""

    def register(func: RuleFunc) -> RuleFunc:
        ALL_RULES[rule_id] = func
        register_meta(rule_id, SCOPE_SYNTACTIC, func.__doc__ or "")
        return func

    return register


def _base_names(cls: ast.ClassDef) -> List[str]:
    """Textual names of a class's bases (``Name`` or dotted ``Attribute``)."""
    names: List[str] = []
    for base in cls.bases:
        node = base
        # Unwrap subscripts like EvictionPolicy[K].
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _own_methods(cls: ast.ClassDef) -> List[ast.FunctionDef]:
    return [n for n in cls.body if isinstance(n, ast.FunctionDef)]


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


@rule("SIM002")
def check_metered_disk_reads(tree: ast.Module, path: str) -> Iterator[Violation]:
    """Every simulated-disk read path must charge the I/O meters.

    The sim clock derives latency from ``block_reads_total`` and
    ``bytes_read_total``; a ``read_*`` method on a ``*Disk`` class that
    returns data without bumping both counters produces I/O the clock
    never sees, silently skewing every latency figure downstream.
    """
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and "Disk" in node.name):
            continue
        for method in _own_methods(node):
            if not method.name.startswith("read_"):
                continue
            charged = set()
            for sub in ast.walk(method):
                targets: Tuple[ast.expr, ...] = ()
                if isinstance(sub, ast.AugAssign):
                    targets = (sub.target,)
                elif isinstance(sub, ast.Assign):
                    targets = tuple(sub.targets)
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr in _METER_COUNTERS
                    ):
                        charged.add(target.attr)
            missing = [c for c in _METER_COUNTERS if c not in charged]
            if missing:
                yield Violation(
                    path,
                    method.lineno,
                    method.col_offset,
                    "SIM002",
                    f"{node.name}.{method.name} never charges "
                    f"{'/'.join('self.' + m for m in missing)}; unmetered "
                    f"reads are invisible to the sim clock",
                )


#: Bases whose direct subclasses must own a ``check_invariants`` body
#: (CACHE001): cache containers and budget-holding serving components.
_INVARIANT_BASES = ("CacheBase", "ServeComponent")


@rule("CACHE001")
def check_cache_invariant_protocol(
    tree: ast.Module, path: str
) -> Iterator[Violation]:
    """``CacheBase``/``ServeComponent`` subclasses must implement
    ``check_invariants``.

    The runtime sanitizer (:mod:`repro.sanitize`) sweeps caches — and
    the serving layer's budget holders (bounded request queues, the
    global budget arbiter) — through ``check_invariants()``; a subclass
    inheriting a parent's check silently skips its own bookkeeping
    (shard routing, interval tracking, flow conservation, share
    accounting), so each direct subclass must define the method in its
    own body.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = _base_names(node)
        matched = [b for b in _INVARIANT_BASES if b in bases]
        if not matched or node.name in _INVARIANT_BASES:
            continue
        if not any(m.name == "check_invariants" for m in _own_methods(node)):
            kind = (
                "cache container"
                if "CacheBase" in matched
                else "serving component"
            )
            yield Violation(
                path,
                node.lineno,
                node.col_offset,
                "CACHE001",
                f"{kind} {node.name} does not define "
                f"check_invariants(); the runtime sanitizer cannot "
                f"verify its bookkeeping",
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


@rule("EXC001")
def check_bare_except(tree: ast.Module, path: str) -> Iterator[Violation]:
    """No bare ``except:`` clauses.

    A bare except swallows ``KeyboardInterrupt``/``SystemExit`` and —
    worse here — :class:`~repro.errors.InvariantError`, turning a
    sanitizer-detected corruption into a silently absorbed event.
    Catch a concrete exception type.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield Violation(
                path,
                node.lineno,
                node.col_offset,
                "EXC001",
                "bare except swallows InvariantError and interrupts; "
                "catch a concrete exception type",
            )


#: Accumulator-name pattern that counts as charging simulated time
#: (EXC002): latency/stall counters in simulated microseconds.
_SIM_CHARGE_RE = re.compile(r"(_us\b|_us_|latency|stall)")


def _charges_sim_time(loop: ast.While) -> bool:
    """Whether ``loop`` accumulates simulated time anywhere in its body.

    Charging = augmented assignment to a ``*_us``/``*latency*``/
    ``*stall*`` counter, or a ``.charge(...)`` method call.
    """
    for sub in ast.walk(loop):
        if isinstance(sub, ast.AugAssign):
            target = sub.target
            name = (
                target.attr
                if isinstance(target, ast.Attribute)
                else target.id if isinstance(target, ast.Name) else ""
            )
            if _SIM_CHARGE_RE.search(name):
                return True
        elif isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute) and func.attr.startswith("charge"):
                return True
    return False


def _handler_retries(handler: ast.ExceptHandler) -> bool:
    """Whether ``handler`` can fall through and re-run the loop body.

    A handler whose *last* statement unconditionally leaves the loop
    (``raise``/``return``/``break``) is an escape hatch, not a retry.
    """
    if not handler.body:
        return True
    last = handler.body[-1]
    return not isinstance(last, (ast.Raise, ast.Return, ast.Break))


def _handler_is_bounded(handler: ast.ExceptHandler) -> bool:
    """Whether a retrying handler carries a conditional escape.

    The bounded form is a budget check that re-raises (or returns or
    breaks) when attempts are exhausted — i.e. the
    :class:`~repro.faults.retry.RetryPolicy` shape.  Statically: some
    ``raise``/``return``/``break`` must exist inside the handler.
    """
    return any(
        isinstance(sub, (ast.Raise, ast.Return, ast.Break))
        for sub in ast.walk(handler)
    )


@rule("EXC002")
def check_retry_loop_discipline(tree: ast.Module, path: str) -> Iterator[Violation]:
    """Retry loops must be bounded and sim-clock charged.

    A ``while True`` loop that catches an exception and goes around
    again is a retry loop.  Two failure modes hide there: an *unbounded*
    loop turns a persistent fault into a hang, and an *uncharged* one
    retries for free in simulated time, hiding fault latency from every
    histogram downstream.  Each retrying handler must therefore contain
    a conditional escape (``raise``/``return``/``break`` behind an
    attempt-budget check — the :class:`~repro.faults.retry.RetryPolicy`
    shape), and the loop must charge simulated time (an accumulating
    ``*_us``/``*latency*``/``*stall*`` counter or a ``.charge()`` call).
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.While):
            continue
        test = node.test
        infinite = isinstance(test, ast.Constant) and bool(test.value)
        if not infinite:
            continue  # a real condition bounds the loop on its own terms
        retrying = [
            handler
            for sub in ast.walk(node)
            if isinstance(sub, ast.Try)
            for handler in sub.handlers
            if _handler_retries(handler)
        ]
        if not retrying:
            continue
        for handler in retrying:
            if not _handler_is_bounded(handler):
                caught = ast.unparse(handler.type) if handler.type else "Exception"
                yield Violation(
                    path,
                    handler.lineno,
                    handler.col_offset,
                    "EXC002",
                    f"retry loop swallows {caught} with no raise/return/"
                    f"break escape; retries must be bounded by an attempt "
                    f"budget (see repro.faults.retry.RetryPolicy)",
                )
        if not _charges_sim_time(node):
            yield Violation(
                path,
                node.lineno,
                node.col_offset,
                "EXC002",
                "retry loop never charges simulated time (no *_us/"
                "*latency*/*stall* accumulation or .charge() call); "
                "free retries hide fault latency from the sim clock",
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


#: Scalar hot-path probes with vectorised batch counterparts (PERF002).
_BATCHABLE_PROBES = {
    "estimate": "estimate_batch",
    "may_contain": "may_contain_batch",
    "fetch_block": "a per-batch fetch memo (see LSMTree.multi_get_from_sstables)",
}

#: Loop constructs a per-element probe can hide in (PERF002).
_LOOP_NODES = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
               ast.GeneratorExp)


@rule("PERF002")
def check_hot_path_scalar_probe_loops(
    tree: ast.Module, path: str
) -> Iterator[Violation]:
    """No per-element probe loops where a batched variant exists.

    ``estimate``, ``may_contain`` and ``fetch_block`` all have batched
    counterparts on the hot path (``estimate_batch``,
    ``may_contain_batch``, and the batched executors' per-batch fetch
    memo) that hash, probe or fetch for a whole batch in one vectorised
    call.  Calling the scalar form from a loop inside a ``# hot-path``
    function re-pays the per-call digest/lookup cost once per element —
    the exact overhead the batch variants amortise.  Batch variants
    themselves (``*_batch`` / ``multi_*`` functions) are exempt: their
    small-batch scalar fallback loops are the intended crossover below
    which numpy overhead beats its savings.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source_lines = fh.read().splitlines()
    except OSError:
        return
    for func in _hot_path_functions(tree, source_lines):
        if func.name.endswith("_batch") or func.name.startswith("multi_"):
            continue  # the batch variants' intentional scalar fallbacks
        seen: set = set()
        for loop in ast.walk(func):
            if not isinstance(loop, _LOOP_NODES):
                continue
            for sub in ast.walk(loop):
                if not (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _BATCHABLE_PROBES
                ):
                    continue
                site = (sub.lineno, sub.col_offset)
                if site in seen:
                    continue  # nested loops walk the same call twice
                seen.add(site)
                yield Violation(
                    path,
                    sub.lineno,
                    sub.col_offset,
                    "PERF002",
                    f"per-element .{sub.func.attr}() call in a loop inside "
                    f"hot-path function {func.name}(); a batched variant "
                    f"exists ({_BATCHABLE_PROBES[sub.func.attr]}) — probe "
                    f"the whole batch in one call",
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


def unordered_set_locals(func: ast.AST) -> "set[str]":
    """Local names bound to unordered set expressions in a function.

    Tracks ``x = {...}`` set displays, set comprehensions, and
    ``set(...)``/``frozenset(...)`` constructor calls.  Shared with the
    whole-program DET002 pass.
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
        unordered = unordered_set_locals(node)

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
_HANDOFF_ATTRS = ("after", "after_cancellable", "call_later", "call_at", "defer")
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

    A lambda or closure passed to ``after()``/``after_cancellable()``/
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
