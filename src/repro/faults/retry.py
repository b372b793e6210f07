"""Bounded retry policy for fault-absorbing read paths.

Every retry loop in the simulator must satisfy two disciplines (the
fault tests in ``tests/faults`` fail the read path on either):

* **bounded** — a retry loop without an attempt budget turns a
  persistent fault into a hang; the policy owns the budget and the
  caller re-raises when :meth:`RetryPolicy.should_retry` says no.
* **sim-clock charged** — a retry's backoff is *simulated* latency; it
  must be charged to the sim clock's accounting (never ``time.sleep``),
  so faulted runs cost latency the bench/serve clocks can see while the
  host never stalls.

Backoff is the deterministic doubling ``backoff * 2**attempt`` schedule,
so two same-seed runs reproduce identical retry latency byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass
class RetryPolicy:
    """Bounded exponential backoff.

    Parameters
    ----------
    max_attempts:
        Retries allowed after the first try (0 disables retrying).
    backoff_us:
        Simulated stall charged for the first retry; each later stall
        doubles the one before.
    """

    max_attempts: int = 4
    backoff_us: float = 50.0

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ConfigError("max_attempts must be >= 0")
        if self.backoff_us < 0 or not math.isfinite(self.backoff_us):
            raise ConfigError("backoff_us must be finite and >= 0")

    def should_retry(self, attempts_so_far: int) -> bool:
        """Whether another retry fits the budget after ``attempts_so_far``."""
        return attempts_so_far < self.max_attempts

    def stall_us(self, attempt: int) -> float:
        """Simulated backoff before retry number ``attempt`` (0-based).

        The caller charges this to its sim-clock accounting; the policy
        never sleeps.
        """
        return self.backoff_us * 2**attempt
