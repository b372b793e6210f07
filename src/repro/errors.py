"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An option object was constructed with invalid values."""


class StorageError(ReproError):
    """The simulated storage layer was asked to do something impossible."""


class TransientIOError(StorageError):
    """A block read failed transiently (injected device hiccup).

    Retryable: the resilient read path backs off and re-issues the read;
    callers only see this once the retry budget is exhausted.
    """


class CorruptionError(StorageError):
    """A block's stored checksum no longer matches its payload.

    Permanent until the block is repaired from a redundant clean copy
    (:meth:`~repro.lsm.storage.SimulatedDisk.repair_block`); the read
    path never serves data that failed verification.
    """


class CacheError(ReproError):
    """A cache component was misused (bad budget, unknown key class...)."""


class InvariantError(ReproError):
    """A runtime invariant check found corrupted internal state.

    Raised by the ``check_invariants()`` protocol (the sanitizer layer,
    see :mod:`repro.sanitize`): byte-accounting drift, structure
    cross-inconsistency, an out-of-order key array, or a version/
    manifest that disagrees with the disk.  This is never a user error —
    it means a bug mutated internal state, and the message names the
    structure and the exact discrepancy."""


class WriteStallError(ReproError):
    """A write was rejected because Level-0 reached its stop trigger.

    Mirrors RocksDB's write-stop behaviour.  The engine normally waits
    for compaction instead of surfacing this, so user code only sees it
    when compactions are disabled.
    """


class ObsError(ReproError):
    """The observability layer was misused or fed malformed artifacts.

    Raised for unregistered metric names, kind mismatches (e.g. calling
    ``observe`` on a counter), and audit/export files that fail schema
    validation or cannot support replay.
    """
