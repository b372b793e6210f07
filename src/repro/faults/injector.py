"""Seedable fault injection for the simulated storage stack.

The injector is the single source of misfortune: the disk consults it
before serving every block read, the WAL consults it on every append,
and the chaos harness routes controller windows through it to simulate
stats blackouts.  All decisions come from one private
:class:`random.Random` seeded at construction, so a fault schedule is a
pure function of ``(seed, sequence of hook calls)`` — two runs of the
same workload see the identical fault sequence, which is what lets the
chaos harness assert byte-identical results against a clean run.

Fault types:

* **transient read errors** — the read attempt raises
  :class:`~repro.errors.TransientIOError`; the data is fine and a retry
  succeeds (unless it rolls a new fault).
* **permanent block corruption** — the target block's stored checksum is
  tampered via :meth:`~repro.lsm.sstable.SSTable.corrupt_block`; every
  subsequent read fails verification until the disk repairs it.
* **torn WAL appends** — the record's checksum is spoiled at append
  time, so crash-recovery replay treats it as the end of the log.
* **stats blackouts** — a contiguous span of controller windows has its
  statistics poisoned with non-finite values, exercising the
  controller's degraded mode.
"""

from __future__ import annotations

from random import Random
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.errors import ConfigError, TransientIOError
from repro.obs import names as N
from repro.obs.recorder import NULL_RECORDER, Recorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.stats import WindowStats
    from repro.lsm.block import BlockHandle
    from repro.lsm.sstable import SSTable


#: Controller windows one scheduled stats blackout poisons.
BLACKOUT_LEN = 3


@dataclass
class FaultConfig:
    """Fault rates and schedule for one :class:`FaultInjector`.

    Rates are per-attempt probabilities in [0, 1].  ``blackout_start``
    (a window index) schedules a controller stats blackout of
    :data:`BLACKOUT_LEN` windows; None disables it.
    """

    transient_read_rate: float = 0.0
    corruption_rate: float = 0.0
    torn_wal_rate: float = 0.0
    blackout_start: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("transient_read_rate", "corruption_rate", "torn_wal_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate!r}")


@dataclass
class FaultStats:
    """Everything the injector did, for reports and assertions."""

    reads_seen: int = 0
    transient_injected: int = 0
    corruptions_injected: int = 0
    wal_appends_seen: int = 0
    torn_injected: int = 0
    blackouts_injected: int = 0

    @property
    def total_injected(self) -> int:
        """All faults of every kind."""
        return (
            self.transient_injected
            + self.corruptions_injected
            + self.torn_injected
            + self.blackouts_injected
        )


class FaultInjector:
    """Deterministic, seedable source of storage faults."""

    def __init__(self, config: Optional[FaultConfig] = None) -> None:
        self.config = config or FaultConfig()
        self.stats = FaultStats()
        self._rng = Random(self.config.seed ^ 0xFA17)
        self.recorder: Recorder = NULL_RECORDER

    # -- disk hook -----------------------------------------------------------

    def before_block_read(self, handle: "BlockHandle", table: "SSTable") -> None:
        """Called by the disk before serving every block read attempt.

        May raise :class:`TransientIOError` (this attempt fails) or
        corrupt the target block in place (the disk's checksum
        verification then fails until the block is repaired).
        """
        self.stats.reads_seen += 1
        cfg = self.config
        if cfg.transient_read_rate and self._rng.random() < cfg.transient_read_rate:
            self.stats.transient_injected += 1
            recorder = self.recorder
            if recorder.enabled:
                recorder.inc(N.FAULT_TRANSIENT)
                recorder.event(
                    N.EV_FAULT_TRANSIENT, sst=handle.sst_id, block=handle.block_no
                )
            raise TransientIOError(f"injected transient fault reading {handle}")
        if cfg.corruption_rate and self._rng.random() < cfg.corruption_rate:
            if not table.is_block_corrupt(handle.block_no):
                table.corrupt_block(handle.block_no)
                self.stats.corruptions_injected += 1
                recorder = self.recorder
                if recorder.enabled:
                    recorder.inc(N.FAULT_CORRUPTION)
                    recorder.event(
                        N.EV_FAULT_CORRUPTION, sst=handle.sst_id, block=handle.block_no
                    )

    # -- WAL hook ------------------------------------------------------------

    def on_wal_append(self) -> bool:
        """Whether this append lands torn (checksum spoiled)."""
        self.stats.wal_appends_seen += 1
        cfg = self.config
        if cfg.torn_wal_rate and self._rng.random() < cfg.torn_wal_rate:
            self.stats.torn_injected += 1
            recorder = self.recorder
            if recorder.enabled:
                recorder.inc(N.FAULT_TORN_WAL)
                recorder.event(N.EV_FAULT_TORN_WAL)
            return True
        return False

    # -- controller hook -------------------------------------------------------

    def maybe_blackout(self, window: "WindowStats") -> "WindowStats":
        """Poison a window's stats if it falls in the blackout span.

        Models a stats-collector outage: the window arrives with
        non-finite counters, which the controller's degraded-mode guard
        must detect rather than feed into the RL update.
        """
        start = self.config.blackout_start
        if start is not None and start <= window.window_index < start + BLACKOUT_LEN:
            window.io_miss = float("nan")
            window.scan_length_sum = float("nan")
            window.range_occupancy = float("inf")
            self.stats.blackouts_injected += 1
            recorder = self.recorder
            if recorder.enabled:
                recorder.inc(N.FAULT_BLACKOUT)
                recorder.event(N.EV_FAULT_BLACKOUT, window=window.window_index)
        return window
