"""Serving-layer component protocol: invariants + sampled sanitizing.

Every budget-holding serving component (bounded request queues, the
global budget arbiter) implements the same ``check_invariants()``
protocol the caches do, and carries the same deterministic sampled
sanitizer gate (:mod:`repro.sanitize`), so ``REPRO_SANITIZE`` covers
the serving layer with the exact machinery that covers the storage
stack.  ``check_invariants`` is abstract here, as on ``CacheBase``, so
a subclass without one fails at construction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro import sanitize


class ServeComponent(ABC):
    """Base for serving components that hold budget or shed load.

    Mirrors :class:`~repro.cache.base.CacheBase`'s sanitizer surface so
    the sampled ``REPRO_SANITIZE`` schedule, the explicit
    ``enable_sanitizer`` switch, and the window-boundary full sweep all
    work identically for queues and arbiters.
    """

    #: Sampled invariant-check gate; None when sanitizing is disabled.
    _sanitizer: Optional[sanitize.Sanitizer]

    def __init__(self) -> None:
        # Set here (not as a class default) so slotted subclasses that
        # list ``_sanitizer`` in ``__slots__`` start disabled too.
        self._sanitizer = None

    @abstractmethod
    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.InvariantError` on corrupt state."""

    def enable_sanitizer(
        self, period: int = sanitize.DEFAULT_PERIOD, seed: int = 0
    ) -> None:
        """Turn on sampled invariant checking for this component."""
        self._sanitizer = sanitize.Sanitizer(period, seed)

    def sanitize_from_env(self, seed: int = 0) -> None:
        """Adopt the ``REPRO_SANITIZE`` schedule (no-op when disabled)."""
        self._sanitizer = sanitize.from_env(seed)

    @property
    def sanitizing(self) -> bool:
        """Whether sampled invariant checking is enabled."""
        return self._sanitizer is not None

    def _after_mutation(self) -> None:
        """Hot-path hook: run a sampled invariant check when enabled."""
        if self._sanitizer is not None:
            self._sanitizer.after_mutation(self)
