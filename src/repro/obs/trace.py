"""Structured event tracing: a bounded, deterministic ring buffer.

Events are low-rate structural happenings (compactions, flushes,
stalls, admission rejections, fault injections, degraded-mode
transitions) — not per-operation samples.  The buffer is bounded
(``deque(maxlen=...)``) so a pathological run cannot exhaust memory;
overwritten events are counted in ``dropped_total`` and reported in the
export's meta line so truncation is never silent.

Each event carries a monotone sequence number assigned at record time:
engine timestamps are only advanced at window boundaries, so many
events share a ``ts_us`` and the sequence number preserves their exact
order for replay and diffing.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence

from repro.errors import ObsError
from repro.obs.names import EVENT_KINDS

_KNOWN_KINDS = frozenset(EVENT_KINDS)


class TraceEvent(NamedTuple):
    """One ring-buffer slot: ``(seq, ts_us, kind, fields)``."""

    seq: int
    ts_us: float
    kind: str
    fields: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (one ``type: event`` line in events.jsonl)."""
        return {
            "type": "event",
            "seq": self.seq,
            "ts_us": self.ts_us,
            "kind": self.kind,
            "fields": self.fields,
        }


class EventTrace:
    """Bounded ring buffer of :class:`TraceEvent` with drop accounting."""

    __slots__ = ("_ring", "capacity", "next_seq", "dropped_total")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ObsError("event trace capacity must be positive")
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self.next_seq = 0
        self.dropped_total = 0

    def record(self, ts_us: float, kind: str, fields: Optional[Dict[str, object]] = None) -> None:
        """Append an event; the oldest is dropped (and counted) when full."""
        if kind not in _KNOWN_KINDS:
            raise ObsError(
                f"unknown event kind {kind!r}; add it to repro.obs.names.EVENT_KINDS"
            )
        if len(self._ring) == self.capacity:
            self.dropped_total += 1
        self._ring.append(TraceEvent(self.next_seq, ts_us, kind, fields or {}))
        self.next_seq += 1

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> List[TraceEvent]:
        """Buffered events, oldest first."""
        return list(self._ring)

    def kind_counts(self) -> Dict[str, int]:
        """Buffered events per kind (note: excludes dropped events)."""
        counts: Dict[str, int] = {}
        for event in self._ring:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    def export_jsonl(self, path: str) -> None:
        """Write events.jsonl: meta line (capacity/drops), then events."""
        with open(path, "w") as fh:
            fh.write(
                json.dumps(
                    {
                        "type": "meta",
                        "kind": "events",
                        "version": 1,
                        "capacity": self.capacity,
                        "recorded": self.next_seq,
                        "dropped": self.dropped_total,
                    }
                )
                + "\n"
            )
            for event in self._ring:
                fh.write(json.dumps(event.to_dict()) + "\n")


def export_fleet_events(traces: Sequence[EventTrace], path: str) -> None:
    """Write a fleet events.jsonl merged from per-shard traces.

    Events interleave by ``(ts_us, shard, seq)`` — per-shard order is
    already total, and shard index breaks cross-shard timestamp ties
    deterministically — then get a fresh fleet-wide sequence number so
    the merged file satisfies the same monotone-``seq`` schema as a
    single-shard export.  Each event's fields gain a ``shard`` key so
    provenance survives the merge.
    """
    merged = [
        (event.ts_us, shard, event.seq, event)
        for shard, trace in enumerate(traces)
        for event in trace.events()
    ]
    merged.sort(key=lambda item: item[:3])
    with open(path, "w") as fh:
        fh.write(
            json.dumps(
                {
                    "type": "meta",
                    "kind": "events",
                    "version": 1,
                    "capacity": sum(t.capacity for t in traces),
                    "recorded": sum(t.next_seq for t in traces),
                    "dropped": sum(t.dropped_total for t in traces),
                }
            )
            + "\n"
        )
        for seq, (ts_us, shard, _, event) in enumerate(merged):
            fh.write(
                json.dumps(
                    {
                        "type": "event",
                        "seq": seq,
                        "ts_us": ts_us,
                        "kind": event.kind,
                        "fields": {**event.fields, "shard": shard},
                    }
                )
                + "\n"
            )
