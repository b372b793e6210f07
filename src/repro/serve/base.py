"""Serving-layer component protocol: invariants + sampled sanitizing.

Every budget-holding serving component (bounded request queues, the
global budget arbiter, the resilience state machines, the shared-tier
coordinator) implements the same ``check_invariants()`` protocol the
caches do and inherits the same deterministic sampled gate
(:class:`repro.sanitize.Sanitized`), so ``REPRO_SANITIZE`` covers the
serving layer with the exact machinery that covers the storage stack.
"""

from __future__ import annotations

from repro.sanitize import Sanitized


class ServeComponent(Sanitized):
    """Base for serving components that hold budget or shed load.

    Shares :class:`~repro.cache.base.CacheBase`'s gate: checking starts
    disabled, and the fleet calls :meth:`sanitize_from_env` with a
    per-component seed when it builds the component, so the sampled
    ``REPRO_SANITIZE`` schedule and the window-boundary full sweep work
    identically for queues and arbiters.
    """
