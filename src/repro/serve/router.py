"""Shard router: keyspace partitioning + scatter-gather planning.

Partitions the workload keyspace across ``num_shards`` independent
engines in one of two modes:

* ``hash`` (default) — FNV-1a over the key modulo the shard count.
  Point operations route to exactly one shard; scans scatter to every
  shard (each owns an arbitrary subset of the range) and the gather
  merges the per-shard sorted results.  Because the shards' key sets
  are disjoint and each returns its *own* first ``length`` entries at
  or after the start key, the merged-and-truncated result equals an
  unsharded scan.
* ``range`` — contiguous slices of the dense integer keyspace
  (``key_of(0) .. key_of(num_keys-1)``).  Scans touch only the shards
  whose slice overlaps ``[start, start+length)``; the gather
  concatenates in shard order.  Deletions can shift a scan's true
  window past the last planned shard, so range-mode sub-scans request
  the full remaining length from each overlapping shard and the merge
  truncates — exact for delete-free workloads, and never returns wrong
  entries (only possibly fewer) otherwise.

The router is pure bookkeeping: it owns no budget and holds no state
beyond the immutable partition map.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import AbstractSet, Dict, List, Sequence, Tuple

from repro.bench.harness import OpResult, apply_operation
from repro.core.engine import KVEngine
from repro.errors import ConfigError
from repro.lsm.block import Entry
from repro.lsm.bloom import fnv1a
from repro.workloads.generator import Operation
from repro.workloads.keys import index_of, key_of


PARTITION_MODES = ("hash", "range")


class ShardRouter:
    """Routes operations to shards and plans scatter-gather fan-out."""

    def __init__(
        self, num_shards: int, num_keys: int, partition: str = "hash"
    ) -> None:
        if num_shards <= 0:
            raise ConfigError(f"num_shards must be positive, got {num_shards}")
        if num_keys <= 0:
            raise ConfigError(f"num_keys must be positive, got {num_keys}")
        if partition not in PARTITION_MODES:
            raise ConfigError(
                f"unknown partition mode {partition!r}; choose from "
                f"{PARTITION_MODES}"
            )
        self.num_shards = num_shards
        self.num_keys = num_keys
        self.partition = partition
        #: Range mode: shard ``i`` owns key ids ``[cuts[i], cuts[i+1])``.
        self._cuts = [
            num_keys * i // num_shards for i in range(num_shards + 1)
        ]

    # -- ownership ------------------------------------------------------------

    def shard_of_id(self, key_id: int) -> int:
        """Owning shard of logical key id ``key_id``."""
        if self.partition == "hash":
            return fnv1a(key_of(key_id).encode("utf-8")) % self.num_shards
        return self._owner_of_id(key_id)

    def shard_of_key(self, key: str) -> int:
        """Owning shard of workload key ``key``."""
        if self.partition == "hash":
            return fnv1a(key.encode("utf-8")) % self.num_shards
        return self._owner_of_id(index_of(key))

    def _owner_of_id(self, key_id: int) -> int:
        key_id = max(0, min(self.num_keys - 1, key_id))
        # cuts are evenly spaced; direct arithmetic beats bisect here and
        # is exact because cuts[i] = floor(num_keys * i / num_shards).
        shard = key_id * self.num_shards // self.num_keys
        while self._cuts[shard + 1] <= key_id:  # pragma: no cover - safety
            shard += 1
        while self._cuts[shard] > key_id:  # pragma: no cover - safety
            shard -= 1
        return shard

    def shard_ids(self) -> List[List[int]]:
        """Each shard's sorted list of owned key ids (for DB seeding)."""
        out: List[List[int]] = [[] for _ in range(self.num_shards)]
        for key_id in range(self.num_keys):
            out[self.shard_of_id(key_id)].append(key_id)
        return out

    # -- planning ------------------------------------------------------------

    def plan(self, op: Operation) -> List[Tuple[int, Operation]]:
        """The (shard, sub-operation) fan-out for one client operation."""
        if op.kind != "scan":
            return [(self.shard_of_key(op.key), op)]
        if self.partition == "hash":
            # Every shard holds part of any range: full scatter.
            return [(shard, op) for shard in range(self.num_shards)]
        start_id = max(0, min(self.num_keys - 1, index_of(op.key)))
        last_id = min(self.num_keys - 1, start_id + max(1, op.length) - 1)
        first = self._owner_of_id(start_id)
        last = self._owner_of_id(last_id)
        plan: List[Tuple[int, Operation]] = []
        for shard in range(first, last + 1):
            sub_start = max(start_id, self._cuts[shard])
            plan.append(
                (shard, Operation("scan", key_of(sub_start), length=op.length))
            )
        return plan

    def split_batch(
        self, ops: Sequence[Operation]
    ) -> Dict[int, List[Tuple[int, Operation]]]:
        """Partition a mixed operation batch into per-shard sub-batches.

        Maps each shard to its ``(batch_index, sub_operation)`` list in
        batch arrival order.  The split is exact: flattening the
        per-shard lists recovers precisely the pairs that planning each
        operation individually produces — points land on their single
        owner, hash-partition scans scatter to every shard, and
        range-partition scans cover exactly the overlapping slices with
        their per-shard adjusted start keys.
        """
        per_shard: Dict[int, List[Tuple[int, Operation]]] = {}
        for index, op in enumerate(ops):
            for shard_id, sub_op in self.plan(op):
                per_shard.setdefault(shard_id, []).append((index, sub_op))
        return per_shard

    def plan_healthy(
        self, op: Operation, unavailable: AbstractSet[int]
    ) -> Tuple[List[Tuple[int, Operation]], List[int]]:
        """Plan around shards the health layer marked unavailable.

        Returns ``(live_plan, dropped_shards)``.  Scans degrade to the
        surviving shards — the gather then carries an explicit *partial*
        marker; a point op whose owner is unavailable gets an empty plan
        (the caller fails it fast instead of stalling on a dead queue).
        The split is a pure function of the plan and the unavailable
        set, so identical health histories re-target identically in
        both partition modes.
        """
        plan = self.plan(op)
        if not unavailable:
            return plan, []
        live = [(shard, sub) for shard, sub in plan if shard not in unavailable]
        dropped = [shard for shard, _ in plan if shard in unavailable]
        return live, dropped

    def merge_scan(self, parts: List[List[Entry]], length: int) -> List[Entry]:
        """Gather: merge per-shard sorted results, truncate to ``length``.

        Shards own disjoint key sets, so the k-way merge is a strict
        total order by key in both partition modes.
        """
        if len(parts) == 1:
            return parts[0][:length]
        return list(islice(heapq.merge(*parts), length))

    # -- execution ------------------------------------------------------------

    @staticmethod
    def execute(engine: KVEngine, op: Operation) -> OpResult:
        """Run one sub-operation on a shard engine; returns what it reads
        (a scan's entries, a get's value, None for a write)."""
        return apply_operation(engine, op)

    @staticmethod
    def execute_batch(
        engine: KVEngine, ops: Sequence[Operation]
    ) -> List[List[Entry]]:  # hot-path
        """Run one shard sub-batch through the engine's batched API.

        Maximal same-kind runs preserve per-shard operation order (a
        get queued after a put of the same key still observes the
        write) while the ops inside a run share one ``multi_*`` call —
        bloom probes and sketch hashes vectorized, duplicate block
        fetches coalesced.  Returns each op's entries (empty for
        non-scans), aligned with ``ops``.
        """
        out: List[List[Entry]] = [[] for _ in ops]
        i, n = 0, len(ops)
        while i < n:
            kind = ops[i].kind
            j = i + 1
            while j < n and ops[j].kind == kind:
                j += 1
            run = ops[i:j]
            if kind == "get":
                engine.multi_get([op.key for op in run])
            elif kind == "scan":
                results = engine.multi_scan(
                    [(op.key, op.length) for op in run]
                )
                for offset, entries in enumerate(results):
                    out[i + offset] = entries
            elif kind == "put":
                engine.multi_put([(op.key, op.value or "") for op in run])
            elif kind == "delete":
                for op in run:
                    engine.delete(op.key)
            else:
                raise ConfigError(f"unknown operation kind {kind!r}")
            i = j
        return out
