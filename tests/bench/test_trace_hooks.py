"""The traced benchmark's hooks are defined on the classes they name.

``benchmarks/perf/trace.py`` installs each span hook through
``owner.__dict__[method]``, so an entry point that moves into a base
class makes every traced run raise ``KeyError``.  That module imports
only the standard library, so it loads here by path.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACE_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "trace.py"


def _load_trace_module():
    spec = importlib.util.spec_from_file_location("perf_trace", TRACE_PY)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_method_is_in_its_owner_class_body():
    hooks = _load_trace_module().HOOKS
    assert hooks
    inherited = [
        hook.name
        for hook in hooks
        if hook.method not in vars(getattr(importlib.import_module(hook.module), hook.owner))
    ]
    assert inherited == []
