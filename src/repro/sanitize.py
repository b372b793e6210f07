"""Runtime invariant sanitizer gating (the repo's ASan/TSan analogue).

Every core structure — caches, eviction policies, the LSM version —
implements a ``check_invariants()`` method that raises
:class:`~repro.errors.InvariantError` when its internal state is
corrupted (byte-accounting drift, cross-structure inconsistency, broken
ordering such as an unsorted range-cache key array).  Those checks are
too expensive for every mutation in normal runs, so this module
provides the sampling gate that decides *when* to run them, in the
spirit of a sanitizer-instrumented debug build:

* ``REPRO_SANITIZE=1`` enables sampled checking everywhere (a check
  roughly every :data:`DEFAULT_PERIOD` mutations per structure, plus a
  full sweep at every engine window boundary);
* ``REPRO_SANITIZE=<n>`` for ``n >= 2`` sets the sampling period to
  ``n``; a value that is not an integer also means
  :data:`DEFAULT_PERIOD`, and ``0`` or a negative value disables.

Structures inherit the gate from :class:`Sanitized`, whose constructor
adopts the environment's schedule: every checked structure checks
itself from the moment it is built, on one schedule (seed 0).  A test
that wants a check after every mutation installs ``Sanitizer(1, seed)``
as the structure's ``_sanitizer`` directly.

Sampling is probabilistic but *deterministic*: each :class:`Sanitizer`
draws check gaps from its own seeded :class:`random.Random`, so two runs
with the same seed check at identical points and reproduce identically —
the property the determinism harness asserts.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from random import Random
from typing import Optional, Protocol

#: Mutations per sampled check when ``REPRO_SANITIZE=1`` (prime, so the
#: sampling phase does not lock onto power-of-two workload periods).
DEFAULT_PERIOD = 53

_ENV_VAR = "REPRO_SANITIZE"
_FALSEY = ("", "0", "false", "False", "off", "no")


class Checkable(Protocol):
    """Anything exposing the ``check_invariants()`` protocol."""

    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.InvariantError` on corrupt state."""
        ...


def env_period() -> int:
    """Sampling period requested via ``REPRO_SANITIZE`` (0 = disabled)."""
    raw = os.environ.get(_ENV_VAR, "")
    if raw in _FALSEY:
        return 0
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_PERIOD
    if value <= 0:
        return 0
    return DEFAULT_PERIOD if value == 1 else value


def env_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitizer checks."""
    return env_period() > 0


class Sanitizer:
    """Deterministic sampled trigger for ``check_invariants()``.

    Parameters
    ----------
    period:
        Mean number of mutations between checks (>= 1; 1 checks after
        every mutation).
    seed:
        Seeds the gap-drawing RNG so the check schedule is a pure
        function of ``(seed, mutation count)``.
    """

    __slots__ = ("_period", "_rng", "_countdown", "checks_run")

    def __init__(self, period: int = DEFAULT_PERIOD, seed: int = 0) -> None:
        self._period = max(1, period)
        self._rng = Random(seed ^ 0x5A17)
        self._countdown = self._draw()
        self.checks_run = 0

    def _draw(self) -> int:
        if self._period == 1:
            return 1
        # Uniform on [1, 2p-1]: mean p, never degenerate.
        return self._rng.randint(1, 2 * self._period - 1)

    def after_mutation(self, target: Checkable) -> None:
        """Run ``target.check_invariants()`` if this mutation is sampled."""
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self._draw()
            self.checks_run += 1
            target.check_invariants()


def from_env() -> Optional["Sanitizer"]:
    """A :class:`Sanitizer` per ``REPRO_SANITIZE``, or None when disabled."""
    period = env_period()
    return Sanitizer(period) if period else None


class Sanitized(ABC):
    """A structure whose invariants the sampled gate checks.

    Subclasses implement ``check_invariants()`` (abstract, so a class
    without one cannot be instantiated), call ``super().__init__()`` and
    call :meth:`_after_mutation` after each mutation.  The constructor
    adopts the ``REPRO_SANITIZE`` schedule; a subclass that skips it
    fails on its first mutation instead of silently never checking.
    """

    #: Sampled invariant-check gate; None when sanitizing is disabled.
    _sanitizer: Optional[Sanitizer]

    def __init__(self) -> None:
        self._sanitizer = from_env()

    @abstractmethod
    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.InvariantError` on corrupt state."""

    def _after_mutation(self) -> None:
        """Hot-path hook: run a sampled invariant check when enabled."""
        if self._sanitizer is not None:
            self._sanitizer.after_mutation(self)
