"""The paper's dynamic workload: phases A-F (Table 3).

Operation ratios per phase (Get / Short Scan / Long Scan / Write, %):

    A:  1 /  1 / 97 /  1      (analytical long scans)
    B:  1 / 49 / 49 /  1      (mixed scans)
    C: 49 / 49 /  1 /  1      (read-heavy points + short scans)
    D: 25 / 25 /  1 / 49      (ingestion begins)
    E:  1 / 49 /  1 / 49      (scan + write)
    F:  1 / 12 / 12 / 75      (write-dominated)
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.workloads.generator import WorkloadSpec

#: (get, short scan, long scan, write) percentages per phase.
DYNAMIC_PHASES: Dict[str, Tuple[int, int, int, int]] = {
    "A": (1, 1, 97, 1),
    "B": (1, 49, 49, 1),
    "C": (49, 49, 1, 1),
    "D": (25, 25, 1, 49),
    "E": (1, 49, 1, 49),
    "F": (1, 12, 12, 75),
}


def dynamic_phase_specs(
    num_keys: int,
    skew: float = 0.9,
    phases: str = "ABCDEF",
) -> List[Tuple[str, WorkloadSpec]]:
    """Build ``(phase-name, spec)`` pairs for a phase string like "ABCDEF"."""
    out: List[Tuple[str, WorkloadSpec]] = []
    for name in phases:
        get, short, long_, write = DYNAMIC_PHASES[name]
        out.append(
            (
                name,
                WorkloadSpec(
                    num_keys=num_keys,
                    get_ratio=get / 100.0,
                    short_scan_ratio=short / 100.0,
                    long_scan_ratio=long_ / 100.0,
                    write_ratio=write / 100.0,
                    point_skew=skew,
                    scan_skew=skew,
                    name=f"phase_{name}",
                ),
            )
        )
    return out
