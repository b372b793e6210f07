"""Controller decision audit log: record every window, replay offline.

Each sealed window that reaches the controller produces one decision
record holding the full :class:`~repro.core.stats.WindowStats` input,
the reward terms (reward, trend, and the estimated-I/O baseline
``h_estimate`` / ``h_smoothed``), the adaptive actor learning rate,
and the *applied* outputs (range split, point threshold, scan ``a`` /
``b``, degraded flag).  The log's header captures everything needed to
rebuild the decision process from scratch: the ``AdCacheConfig``, the
agent's constructor arguments, and the LSM constants the reward model
uses.

Because the whole stack is deterministic — seeded ``Random`` /
``default_rng`` everywhere, no wall time — feeding the recorded window
sequence through a freshly built controller reproduces the original
trajectory *bit-for-bit*.  :func:`replay_decision_log` does exactly
that, and :func:`verify_replay` diffs the replayed records against the
recorded ones, making the audit log a self-checking artifact: if
replay diverges, either the log was edited or determinism regressed.

Replay needs no caches or admission structures (the controller accepts
``None`` for all of them and computes identical actions), so an audit
log replays in milliseconds without a tree or workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ObsError

#: Applied-output fields compared by :func:`verify_replay`, in order.
APPLIED_FIELDS: Tuple[str, ...] = (
    "range_ratio",
    "point_threshold",
    "scan_a",
    "scan_b",
)
#: Reward-term fields recorded per decision (and compared on replay).
REWARD_FIELDS: Tuple[str, ...] = ("reward", "trend", "h_estimate", "h_smoothed")


@dataclass
class DecisionAudit:
    """Append-only audit log for one controller's decision stream."""

    header: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = field(default_factory=list)

    def set_header(
        self,
        config: Dict[str, Any],
        agent_init: Optional[Dict[str, Any]],
        entries_per_block: int,
        level0_max_runs: int,
    ) -> None:
        """Capture the replay preamble (config + agent construction).

        ``agent_init`` is ``None`` when the agent was supplied
        externally (e.g. pretrained weights): such logs still record
        every decision but cannot be replayed from the header alone,
        and :func:`replay_decision_log` says so explicitly.
        """
        self.header = {
            "type": "header",
            "version": 1,
            "config": config,
            "agent_init": agent_init,
            "entries_per_block": entries_per_block,
            "level0_max_runs": level0_max_runs,
        }

    def record(
        self,
        window: "Any",
        control: "Any",
        ts_us: float,
    ) -> Dict[str, Any]:
        """Append one decision: the window input + the ControlRecord output."""
        rec: Dict[str, Any] = {
            "type": "decision",
            "ts_us": ts_us,
            "window": window.to_dict(),
            "degraded": bool(control.degraded),
            "actor_lr": control.actor_lr,
        }
        for name in REWARD_FIELDS:
            rec[name] = getattr(control, name)
        rec["applied"] = {name: getattr(control, name) for name in APPLIED_FIELDS}
        self.records.append(rec)
        return rec

    def export_jsonl(self, path: str) -> None:
        """Write audit.jsonl: header line, then one line per decision."""
        if self.header is None:
            raise ObsError("audit log has no header; call set_header first")
        with open(path, "w") as fh:
            fh.write(json.dumps(self.header) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


def load_audit_log(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Parse audit.jsonl back into ``(header, decision_records)``."""
    header: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise ObsError(f"{path}:{line_no}: not valid JSON: {exc}") from None
            kind = obj.get("type")
            if kind == "header":
                if header is not None:
                    raise ObsError(f"{path}:{line_no}: duplicate header line")
                header = obj
            elif kind == "decision":
                records.append(obj)
            else:
                raise ObsError(f"{path}:{line_no}: unknown line type {kind!r}")
    if header is None:
        raise ObsError(f"{path}: missing header line")
    return header, records


def build_replay_controller(header: Dict[str, Any]) -> "Any":
    """Reconstruct the controller (agent included) an audit log describes.

    Raises :class:`ObsError` when the header lacks ``agent_init`` (the
    original run used an externally supplied agent whose weights the
    log does not carry).
    """
    # Imported here: obs is a leaf package the core imports, so pulling
    # core modules at import time would create a cycle.
    from repro.core.config import AdCacheConfig
    from repro.core.controller import PolicyDecisionController
    from repro.rl.actor_critic import ActorCriticAgent

    agent_init = header.get("agent_init")
    if agent_init is None:
        raise ObsError(
            "audit header has no agent_init (externally supplied agent); "
            "replay needs the original agent construction parameters"
        )
    return PolicyDecisionController(
        config=AdCacheConfig(**header["config"]),
        agent=ActorCriticAgent.from_record(agent_init),
        block_cache=None,
        range_cache=None,
        freq_admission=None,
        scan_admission=None,
        entries_per_block=int(header["entries_per_block"]),
        level0_max_runs=int(header["level0_max_runs"]),
    )


def replay_decision_log(
    header: Dict[str, Any], records: List[Dict[str, Any]]
) -> List["Any"]:
    """Re-run the recorded window sequence; returns the ControlRecords.

    The controller (and its agent) are rebuilt from the header with the
    original seeds, then fed each recorded ``WindowStats`` in order.
    On a healthy log the returned records match the recorded reward,
    learning-rate, and applied-parameter streams exactly.
    """
    from repro.core.stats import WindowStats

    controller = build_replay_controller(header)
    replayed = []
    for rec in records:
        window = WindowStats.from_dict(rec["window"])
        replayed.append(controller.on_window(window))
    return replayed


def verify_replay(
    header: Dict[str, Any], records: List[Dict[str, Any]]
) -> List[str]:
    """Replay and diff against the recorded stream; returns mismatches.

    An empty list means the log replays bit-for-bit.  Comparison is
    exact (``==`` on floats): both sides are products of the same
    deterministic arithmetic, so any tolerance would only mask a
    determinism regression.
    """
    replayed = replay_decision_log(header, records)
    problems: List[str] = []
    for i, (rec, got) in enumerate(zip(records, replayed)):
        for name in REWARD_FIELDS + ("actor_lr",):
            want = rec[name]
            have = getattr(got, name)
            if want != have:
                problems.append(f"decision {i}: {name} recorded {want!r} != replayed {have!r}")
        for name in APPLIED_FIELDS:
            want = rec["applied"][name]
            have = getattr(got, name)
            if want != have:
                problems.append(
                    f"decision {i}: applied.{name} recorded {want!r} != replayed {have!r}"
                )
        if bool(rec["degraded"]) != bool(got.degraded):
            problems.append(
                f"decision {i}: degraded recorded {rec['degraded']!r} "
                f"!= replayed {got.degraded!r}"
            )
    if len(replayed) != len(records):  # pragma: no cover - lengths always match
        problems.append(f"replayed {len(replayed)} decisions, log has {len(records)}")
    return problems
