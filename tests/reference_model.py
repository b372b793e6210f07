"""The one reference model every differential test compares against.

A key-value store as a plain dict plus its keys in sorted order: point
reads, ordered scans, puts and deletes with no caching, no layout and
no failure.  An engine, a tree, a MemTable or a cache is correct when
it answers what this model answers.

:meth:`ReferenceModel.apply` takes a workload
:class:`~repro.workloads.generator.Operation` and returns what
:func:`repro.bench.harness.apply_operation` returns for it, so an
engine and the model can be driven by the same operation stream.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.workloads.generator import Operation
from repro.workloads.keys import key_of, value_of

Entry = Tuple[str, str]
#: What one operation reads: a get's value, a scan's entries, or None.
OpResult = Union[Optional[str], List[Entry]]


class ReferenceModel:
    """A dict plus its sorted keys: what every store must agree with."""

    def __init__(self, items: Iterable[Entry] = ()) -> None:
        self.data: Dict[str, str] = dict(items)
        self._keys: List[str] = sorted(self.data)

    @classmethod
    def seeded(cls, num_keys: int) -> "ReferenceModel":
        """The contents :func:`repro.bench.harness.seed_database` loads."""
        return cls((key_of(i), value_of(i)) for i in range(num_keys))

    # -- reads -------------------------------------------------------------

    def get(self, key: str) -> Optional[str]:
        return self.data.get(key)

    def scan(self, start: str, length: int) -> List[Entry]:
        """The first ``length`` live entries at or after ``start``."""
        lo = bisect_left(self._keys, start)
        return [(k, self.data[k]) for k in self._keys[lo : lo + length]]

    def keys(self) -> List[str]:
        """Every live key, ascending."""
        return list(self._keys)

    def items(self) -> List[Entry]:
        """Every live entry, ascending by key."""
        return [(k, self.data[k]) for k in self._keys]

    def __contains__(self, key: object) -> bool:
        return key in self.data

    def __len__(self) -> int:
        return len(self.data)

    # -- writes ------------------------------------------------------------

    def put(self, key: str, value: str) -> None:
        if key not in self.data:
            insort(self._keys, key)
        self.data[key] = value

    def delete(self, key: str) -> None:
        """Remove ``key``; deleting an absent key is a no-op."""
        if key in self.data:
            del self.data[key]
            del self._keys[bisect_left(self._keys, key)]

    def apply(self, op: Operation) -> OpResult:
        """Execute one workload operation; returns what it reads."""
        if op.kind == "get":
            return self.get(op.key)
        if op.kind == "scan":
            return self.scan(op.key, op.length)
        if op.kind == "put":
            self.put(op.key, op.value or "")
        elif op.kind == "delete":
            self.delete(op.key)
        else:
            raise ValueError(f"unknown operation kind {op.kind!r}")
        return None
