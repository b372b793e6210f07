"""Operation-stream generation from workload mixes.

A :class:`WorkloadSpec` fixes the probability of each operation type
(point lookup, short scan, long scan, put, delete), the scan lengths,
and the Zipfian skews; :class:`WorkloadGenerator` turns it into a
deterministic stream of :class:`Operation` tuples.  The paper's four
static workloads (Section 5.2) have dedicated constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import numpy as np

from repro.errors import ConfigError
from repro.workloads.keys import key_of, value_of
from repro.workloads.zipfian import ZipfianGenerator


class Operation(NamedTuple):
    """One workload operation.

    ``kind`` is one of ``"get"``, ``"scan"``, ``"put"``, ``"delete"``;
    ``length`` is meaningful for scans, ``value`` for puts.
    """

    kind: str
    key: str
    length: int = 0
    value: Optional[str] = None


@dataclass
class WorkloadSpec:
    """Probabilities and parameters of one workload phase.

    Ratios must sum to 1 (within rounding).  ``point_skew`` shapes the
    point-lookup/update key popularity, ``scan_skew`` the scan start
    keys; both default to the paper's Zipfian 0.9.
    """

    num_keys: int
    get_ratio: float = 0.0
    short_scan_ratio: float = 0.0
    long_scan_ratio: float = 0.0
    write_ratio: float = 0.0
    delete_ratio: float = 0.0
    short_scan_length: int = 16
    long_scan_length: int = 64
    point_skew: float = 0.9
    scan_skew: float = 0.9
    scrambled: bool = True
    #: Deterministic hot-set rotation: sampled key ids are remapped to
    #: ``(id + hot_offset) mod num_keys`` (see ZipfianGenerator.offset).
    hot_offset: int = 0
    name: str = field(default="workload")

    def __post_init__(self) -> None:
        if self.num_keys <= 0:
            raise ConfigError(
                f"workload {self.name!r}: num_keys must be a positive "
                f"key-space size, got {self.num_keys}"
            )
        ratios = {
            "get_ratio": self.get_ratio,
            "short_scan_ratio": self.short_scan_ratio,
            "long_scan_ratio": self.long_scan_ratio,
            "write_ratio": self.write_ratio,
            "delete_ratio": self.delete_ratio,
        }
        for ratio_name, value in ratios.items():
            if value < 0:
                raise ConfigError(
                    f"workload {self.name!r}: {ratio_name} must be "
                    f"non-negative, got {value:g}"
                )
        total = sum(ratios.values())
        if not 0.999 <= total <= 1.001:
            detail = ", ".join(f"{k}={v:g}" for k, v in ratios.items())
            raise ConfigError(
                f"workload {self.name!r}: operation ratios must sum to 1, "
                f"got {total:g} ({detail})"
            )
        for length_name, length in (
            ("short_scan_length", self.short_scan_length),
            ("long_scan_length", self.long_scan_length),
        ):
            if length <= 0:
                raise ConfigError(
                    f"workload {self.name!r}: {length_name} must be "
                    f"positive, got {length}"
                )
        for skew_name, skew in (
            ("point_skew", self.point_skew),
            ("scan_skew", self.scan_skew),
        ):
            if skew < 0:
                raise ConfigError(
                    f"workload {self.name!r}: {skew_name} must be >= 0, "
                    f"got {skew:g}"
                )
        if self.hot_offset < 0:
            raise ConfigError(
                f"workload {self.name!r}: hot_offset must be >= 0, "
                f"got {self.hot_offset}"
            )

    @property
    def scan_ratio(self) -> float:
        """Combined probability of any scan."""
        return self.short_scan_ratio + self.long_scan_ratio

    @property
    def avg_scan_length(self) -> float:
        """Expected requested scan length, conditioned on scanning."""
        total = self.scan_ratio
        if total == 0:
            return 0.0
        return (
            self.short_scan_ratio * self.short_scan_length
            + self.long_scan_ratio * self.long_scan_length
        ) / total


#: Operations drawn per vectorized RNG call; the stream depends on it.
DRAW_BATCH = 4096


class WorkloadGenerator:
    """Deterministic stream of operations for one spec.

    Writes overwrite existing keys with bumped version payloads, so the
    database size stays constant while compaction pressure is real.
    """

    _KINDS = ("get", "short_scan", "long_scan", "put", "delete")

    def __init__(self, spec: WorkloadSpec, seed: int = 0) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        self._point_keys = ZipfianGenerator(
            spec.num_keys, spec.point_skew, seed=seed + 1,
            scrambled=spec.scrambled, offset=spec.hot_offset,
        )
        self._scan_keys = ZipfianGenerator(
            spec.num_keys, spec.scan_skew, seed=seed + 2,
            scrambled=spec.scrambled, offset=spec.hot_offset,
        )
        self._probs = np.array(
            [
                spec.get_ratio,
                spec.short_scan_ratio,
                spec.long_scan_ratio,
                spec.write_ratio,
                spec.delete_ratio,
            ]
        )
        self._probs = self._probs / self._probs.sum()
        self._version = 1

    def ops(self, count: int) -> Iterator[Operation]:
        """Yield exactly ``count`` operations."""
        spec = self.spec
        remaining = count
        while remaining > 0:
            size = min(DRAW_BATCH, remaining)
            kinds = self._rng.choice(len(self._KINDS), size=size, p=self._probs)
            point_ids = self._point_keys.sample(size)
            scan_ids = self._scan_keys.sample(size)
            for i in range(size):
                kind = kinds[i]
                if kind == 0:
                    yield Operation("get", key_of(int(point_ids[i])))
                elif kind == 1:
                    start = min(
                        int(scan_ids[i]), spec.num_keys - spec.short_scan_length
                    )
                    yield Operation(
                        "scan", key_of(max(0, start)), length=spec.short_scan_length
                    )
                elif kind == 2:
                    start = min(
                        int(scan_ids[i]), spec.num_keys - spec.long_scan_length
                    )
                    yield Operation(
                        "scan", key_of(max(0, start)), length=spec.long_scan_length
                    )
                elif kind == 3:
                    idx = int(point_ids[i])
                    yield Operation(
                        "put", key_of(idx), value=value_of(idx, self._version)
                    )
                    self._version += 1
                else:
                    yield Operation("delete", key_of(int(point_ids[i])))
            remaining -= size


# -- the paper's static workloads (Section 5.2) ----------------------------------


def point_lookup_workload(num_keys: int, skew: float = 0.9, **kw) -> WorkloadSpec:
    """100% point lookups."""
    return WorkloadSpec(
        num_keys=num_keys, get_ratio=1.0, point_skew=skew, name="point_lookup", **kw
    )


def short_scan_workload(num_keys: int, skew: float = 0.9, **kw) -> WorkloadSpec:
    """100% scans of fixed length 16."""
    return WorkloadSpec(
        num_keys=num_keys, short_scan_ratio=1.0, scan_skew=skew, name="short_scan", **kw
    )


def balanced_workload(num_keys: int, skew: float = 0.9, **kw) -> WorkloadSpec:
    """Even mix: ~33% point lookups, ~33% short scans, ~33% writes."""
    return WorkloadSpec(
        num_keys=num_keys,
        get_ratio=1.0 / 3,
        short_scan_ratio=1.0 / 3,
        write_ratio=1.0 / 3,
        point_skew=skew,
        scan_skew=skew,
        name="balanced",
        **kw,
    )


def batched_mixed_workload(num_keys: int, skew: float = 0.9, **kw) -> WorkloadSpec:
    """Get-heavy mix for the batched-execution bench family.

    90% point lookups / 5% short scans (length 8) / 5% writes over a
    scrambled-zipf keyspace: a read-dominant OLTP-style mix where the
    batched path's honest advantages (one vectorized digest pass per
    miss batch, coalesced block fetches, within-batch duplicate
    sharing) actually apply.  Scan and write work is cache-churn-bound
    — the admission/eviction effort is identical scalar or batched — so
    heavier mixes dilute what batching can show.
    """
    return WorkloadSpec(
        num_keys=num_keys,
        get_ratio=0.9,
        short_scan_ratio=0.05,
        write_ratio=0.05,
        short_scan_length=8,
        point_skew=skew,
        scan_skew=skew,
        name="mixedb",
        **kw,
    )


def long_scan_workload(num_keys: int, skew: float = 0.9, **kw) -> WorkloadSpec:
    """100% scans of fixed length 64."""
    return WorkloadSpec(
        num_keys=num_keys, long_scan_ratio=1.0, scan_skew=skew, name="long_scan", **kw
    )

