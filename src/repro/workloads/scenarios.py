"""Scenario atlas: adversarial & time-varying workload schedules.

Every related dynamic-workload paper (RusKey, ArceKV) evaluates on
*time-varying* traffic; the paper's own Table 3 phases are the only
dynamic sequence the repo had.  This module is the missing catalogue: a
registry of seeded **scenarios**, each a phase schedule of
per-tenant :class:`~repro.workloads.generator.WorkloadSpec`s that the
serving simulator (:mod:`repro.serve`) plays back over simulated time.

A scenario compiles to a :class:`ScenarioSchedule`:

* phases are **time-based** — every phase has a simulated duration and
  all tenants cross phase boundaries together, so diurnal waves, flash
  crowds and tenant churn line up across the fleet;
* each phase gives each tenant a :class:`TenantPhase`: the operation
  mix it draws from, an op budget, and an arrival-rate scale (0 ops =
  dormant, which is how tenants arrive and churn);
* specs may vary *within* a scenario via :func:`interpolate_specs`
  (skew drift, write-ratio ramps) and rotate their hot set via
  ``WorkloadSpec.hot_offset``;
* everything is a pure function of ``(scenario name, ScenarioParams)``
  — two builds are equal dataclasses, and two serve runs over the same
  schedule produce identical fleet fingerprints.

The matrix runner over this registry lives in
:mod:`repro.workloads.atlas`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Tuple

from repro.errors import ConfigError
from repro.workloads.generator import WorkloadSpec

__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioParams",
    "ScenarioPhase",
    "ScenarioSchedule",
    "TenantPhase",
    "build_scenario",
    "describe_scenarios",
    "interpolate_specs",
    "scenario_names",
]


@dataclass(frozen=True)
class TenantPhase:
    """One tenant's load during one phase.

    ``ops`` is the tenant's operation budget for the phase (0 =
    dormant); ``rate_scale`` multiplies the run's base open-loop
    arrival rate, so waves change *intensity* while the op budget
    bounds total work.
    """

    spec: WorkloadSpec
    ops: int
    rate_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.ops < 0:
            raise ConfigError(f"tenant phase ops must be >= 0, got {self.ops}")
        if self.rate_scale < 0:
            raise ConfigError(
                f"tenant phase rate_scale must be >= 0, got {self.rate_scale:g}"
            )

    @property
    def active(self) -> bool:
        """Whether the tenant issues anything during this phase."""
        return self.ops > 0 and self.rate_scale > 0


@dataclass(frozen=True)
class ScenarioPhase:
    """One simulated-time slice of a scenario, for every tenant.

    Tenants absent from ``tenants`` are dormant for the phase — that is
    how arrival and churn are expressed.
    """

    name: str
    duration_us: float
    tenants: Mapping[str, TenantPhase]

    def __post_init__(self) -> None:
        if self.duration_us <= 0:
            raise ConfigError(
                f"phase {self.name!r}: duration_us must be positive, "
                f"got {self.duration_us:g}"
            )

    @property
    def ops(self) -> int:
        """Total op budget across tenants for this phase."""
        return sum(t.ops for t in self.tenants.values())


@dataclass(frozen=True)
class ScenarioSchedule:
    """A fully-resolved scenario: the phases one serve run plays back."""

    name: str
    seed: int
    phases: Tuple[ScenarioPhase, ...]
    #: Router keyspace: every spec's ``num_keys`` must fit inside it.
    num_keys: int
    #: Keys bulk-loaded before the run; ids in ``[preload_keys,
    #: num_keys)`` only exist once a write creates them (growth).
    preload_keys: int
    description: str = ""
    #: The open-loop arrival rate a ``rate_scale`` of 1.0 maps to; the
    #: serving config adopts it so phase durations and offered load
    #: agree (budgets actually drain within their phases).
    arrival_rate_ops_s: float = 2000.0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigError(f"scenario {self.name!r}: needs >= 1 phase")
        if self.arrival_rate_ops_s <= 0:
            raise ConfigError(
                f"scenario {self.name!r}: arrival_rate_ops_s must be "
                f"positive, got {self.arrival_rate_ops_s:g}"
            )
        if self.num_keys <= 0:
            raise ConfigError(
                f"scenario {self.name!r}: num_keys must be positive, "
                f"got {self.num_keys}"
            )
        if not 0 < self.preload_keys <= self.num_keys:
            raise ConfigError(
                f"scenario {self.name!r}: preload_keys must lie in "
                f"(0, num_keys={self.num_keys}], got {self.preload_keys}"
            )
        totals: Dict[str, int] = {}
        for phase in self.phases:
            for tenant, load in phase.tenants.items():
                if load.spec.num_keys > self.num_keys:
                    raise ConfigError(
                        f"scenario {self.name!r} phase {phase.name!r}: "
                        f"tenant {tenant!r} spec covers "
                        f"{load.spec.num_keys} keys but the schedule "
                        f"keyspace is {self.num_keys}"
                    )
                totals[tenant] = totals.get(tenant, 0) + load.ops
        if not totals:
            raise ConfigError(f"scenario {self.name!r}: no tenants defined")
        for tenant in sorted(totals):
            if totals[tenant] <= 0:
                raise ConfigError(
                    f"scenario {self.name!r}: tenant {tenant!r} never "
                    f"issues an operation; drop it from the schedule"
                )

    @property
    def tenant_names(self) -> List[str]:
        """Sorted union of tenants over all phases."""
        names = set()
        for phase in self.phases:
            names.update(phase.tenants)
        return sorted(names)

    @property
    def total_ops(self) -> int:
        """Total op budget over the whole schedule."""
        return sum(phase.ops for phase in self.phases)

    @property
    def total_duration_us(self) -> float:
        """Simulated length of the schedule."""
        return sum(phase.duration_us for phase in self.phases)

    def phase_starts(self) -> List[float]:
        """Simulated start time of each phase."""
        starts: List[float] = []
        now = 0.0
        for phase in self.phases:
            starts.append(now)
            now += phase.duration_us
        return starts

    def tenant_total_ops(self, tenant: str) -> int:
        """One tenant's op budget across every phase."""
        return sum(
            phase.tenants[tenant].ops
            for phase in self.phases
            if tenant in phase.tenants
        )


def interpolate_specs(
    start: WorkloadSpec, end: WorkloadSpec, steps: int
) -> List[WorkloadSpec]:
    """Linear schedule of ``steps`` specs from ``start`` to ``end``.

    Operation ratios are interpolated then renormalised to sum to 1;
    skews, scan lengths, key counts and the hot-set offset interpolate
    linearly (integers rounded).  Endpoints are included: the first
    entry equals ``start``'s parameters, the last ``end``'s.
    """
    if steps < 2:
        raise ConfigError(f"interpolation needs >= 2 steps, got {steps}")
    out: List[WorkloadSpec] = []
    for i in range(steps):
        t = i / (steps - 1)

        def lerp(a: float, b: float) -> float:
            return a + (b - a) * t

        ratios = {
            "get_ratio": lerp(start.get_ratio, end.get_ratio),
            "short_scan_ratio": lerp(
                start.short_scan_ratio, end.short_scan_ratio
            ),
            "long_scan_ratio": lerp(start.long_scan_ratio, end.long_scan_ratio),
            "write_ratio": lerp(start.write_ratio, end.write_ratio),
            "delete_ratio": lerp(start.delete_ratio, end.delete_ratio),
        }
        total = sum(ratios.values())
        if total <= 0:
            raise ConfigError("interpolated ratios vanished; check endpoints")
        out.append(
            replace(
                start,
                num_keys=round(lerp(start.num_keys, end.num_keys)),
                short_scan_length=round(
                    lerp(start.short_scan_length, end.short_scan_length)
                ),
                long_scan_length=round(
                    lerp(start.long_scan_length, end.long_scan_length)
                ),
                point_skew=lerp(start.point_skew, end.point_skew),
                scan_skew=lerp(start.scan_skew, end.scan_skew),
                hot_offset=round(lerp(start.hot_offset, end.hot_offset)),
                name=f"{start.name}~{i}",
                **{k: v / total for k, v in ratios.items()},
            )
        )
    return out


# -- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioParams:
    """Size/seed knobs shared by every scenario builder."""

    num_keys: int = 4000
    tenants: int = 4
    #: Nominal per-tenant op budget for a full-intensity phase.
    phase_ops: int = 1200
    #: Base open-loop arrival rate a ``rate_scale`` of 1.0 maps to.
    arrival_rate_ops_s: float = 2000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_keys < 100:
            raise ConfigError(
                f"scenarios need num_keys >= 100, got {self.num_keys}"
            )
        if self.tenants < 2:
            raise ConfigError(f"scenarios need >= 2 tenants, got {self.tenants}")
        if self.phase_ops <= 0:
            raise ConfigError(f"phase_ops must be positive, got {self.phase_ops}")
        if self.arrival_rate_ops_s <= 0:
            raise ConfigError(
                f"arrival_rate_ops_s must be positive, "
                f"got {self.arrival_rate_ops_s:g}"
            )

    def tenant_name(self, index: int) -> str:
        """Stable tenant naming shared with the serving layer."""
        return f"client{index:02d}"

    def phase_duration_us(self) -> float:
        """Simulated length of one nominal phase.

        Budget and rate scale together, so a phase's wall time is the
        same for every tenant; the 1.25 margin leaves room for the tail
        of the Poisson arrivals to drain the budget.
        """
        return self.phase_ops / self.arrival_rate_ops_s * 1e6 * 1.25


Builder = Callable[[ScenarioParams], ScenarioSchedule]


@dataclass(frozen=True)
class Scenario:
    """One registered scenario: name, intent, and its builder."""

    name: str
    description: str
    build: Builder = field(repr=False)


#: ``name -> Scenario`` for every registered scenario.
SCENARIOS: Dict[str, Scenario] = {}


def _register(name: str, description: str) -> Callable[[Builder], Builder]:
    def deco(build: Builder) -> Builder:
        if name in SCENARIOS:
            raise ConfigError(f"scenario {name!r} registered twice")
        SCENARIOS[name] = Scenario(name, description, build)
        return build

    return deco


def scenario_names() -> List[str]:
    """Sorted registered scenario names."""
    return sorted(SCENARIOS)


def build_scenario(name: str, params: ScenarioParams) -> ScenarioSchedule:
    """Build one registered scenario's schedule."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        ) from None
    return scenario.build(params)


def describe_scenarios() -> str:
    """Registry-backed help text for ``repro atlas --list-scenarios``."""
    lines = []
    for name in scenario_names():
        lines.append(f"{name:16s} {SCENARIOS[name].description}")
    return "\n".join(lines)


# -- scenario builders --------------------------------------------------------


def _mix(
    num_keys: int,
    get: float = 0.0,
    short: float = 0.0,
    long_: float = 0.0,
    write: float = 0.0,
    skew: float = 0.9,
    name: str = "mix",
    scrambled: bool = True,
) -> WorkloadSpec:
    total = get + short + long_ + write
    return WorkloadSpec(
        num_keys=num_keys,
        get_ratio=get / total,
        short_scan_ratio=short / total,
        long_scan_ratio=long_ / total,
        write_ratio=write / total,
        point_skew=skew,
        scan_skew=skew,
        scrambled=scrambled,
        name=name,
    )


def _uniform_phase(
    params: ScenarioParams, spec: WorkloadSpec
) -> Dict[str, TenantPhase]:
    ops = max(1, round(params.phase_ops))
    return {
        params.tenant_name(i): TenantPhase(spec, ops)
        for i in range(params.tenants)
    }


@_register(
    "diurnal",
    "offset sinusoidal tenant waves: per-tenant load rises and falls "
    "across 8 phases like timezone-shifted daily traffic",
)
def _diurnal(params: ScenarioParams) -> ScenarioSchedule:
    n_phases = 8
    spec = _mix(
        params.num_keys, get=0.55, short=0.25, write=0.2, name="diurnal_mix"
    )
    phases = []
    for ph in range(n_phases):
        tenants: Dict[str, TenantPhase] = {}
        for t in range(params.tenants):
            wave = math.sin(2.0 * math.pi * (ph / n_phases + t / params.tenants))
            scale = 0.3 + 0.7 * max(0.0, wave)
            tenants[params.tenant_name(t)] = TenantPhase(
                spec, max(1, round(params.phase_ops * scale)), scale
            )
        phases.append(
            ScenarioPhase(f"hour{ph}", params.phase_duration_us(), tenants)
        )
    return ScenarioSchedule(
        name="diurnal",
        seed=params.seed,
        phases=tuple(phases),
        num_keys=params.num_keys,
        preload_keys=params.num_keys,
        arrival_rate_ops_s=params.arrival_rate_ops_s,
        description=SCENARIOS["diurnal"].description,
    )


@_register(
    "flash_crowd",
    "steady balanced traffic until one tenant spikes 8x onto a tiny hot "
    "keyspace, then decays back over two phases",
)
def _flash_crowd(params: ScenarioParams) -> ScenarioSchedule:
    base = _mix(params.num_keys, get=0.5, short=0.3, write=0.2, name="fc_base")
    crowd_hot = _mix(
        max(100, params.num_keys // 20),
        get=0.95,
        write=0.05,
        skew=1.1,
        name="fc_spike",
    )
    crowd_warm = _mix(
        max(100, params.num_keys // 10),
        get=0.9,
        write=0.1,
        skew=1.0,
        name="fc_decay",
    )
    star = params.tenant_name(0)
    phases = []
    for ph in range(6):
        tenants = _uniform_phase(params, base)
        if ph == 2:
            tenants[star] = TenantPhase(crowd_hot, params.phase_ops * 8, 8.0)
        elif ph == 3:
            tenants[star] = TenantPhase(crowd_warm, params.phase_ops * 3, 3.0)
        phases.append(
            ScenarioPhase(f"t{ph}", params.phase_duration_us(), tenants)
        )
    return ScenarioSchedule(
        name="flash_crowd",
        seed=params.seed,
        phases=tuple(phases),
        num_keys=params.num_keys,
        preload_keys=params.num_keys,
        arrival_rate_ops_s=params.arrival_rate_ops_s,
        description=SCENARIOS["flash_crowd"].description,
    )


@_register(
    "zipf_drift",
    "point-heavy traffic whose skew climbs 0.6 -> 1.1 while the "
    "(unscrambled) hot set rotates through the keyspace each phase",
)
def _zipf_drift(params: ScenarioParams) -> ScenarioSchedule:
    n_phases = 6
    start = _mix(
        params.num_keys, get=0.8, short=0.1, write=0.1, skew=0.6,
        name="drift", scrambled=False,
    )
    end = replace(
        start,
        point_skew=1.1,
        scan_skew=1.1,
        hot_offset=(n_phases - 1) * params.num_keys // n_phases,
    )
    specs = interpolate_specs(start, end, n_phases)
    phases = [
        ScenarioPhase(
            f"drift{ph}",
            params.phase_duration_us(),
            _uniform_phase(params, specs[ph]),
        )
        for ph in range(n_phases)
    ]
    return ScenarioSchedule(
        name="zipf_drift",
        seed=params.seed,
        phases=tuple(phases),
        num_keys=params.num_keys,
        preload_keys=params.num_keys,
        arrival_rate_ops_s=params.arrival_rate_ops_s,
        description=SCENARIOS["zipf_drift"].description,
    )


@_register(
    "scan_storm",
    "point-lookup calm, then a long-scan storm phase that floods the "
    "block path, then back — the adversarial case for scan admission",
)
def _scan_storm(params: ScenarioParams) -> ScenarioSchedule:
    calm = _mix(params.num_keys, get=0.9, write=0.1, name="ss_calm")
    gusts = _mix(
        params.num_keys, get=0.3, short=0.6, write=0.1, name="ss_gusts"
    )
    storm = _mix(
        params.num_keys, get=0.1, long_=0.85, write=0.05, name="ss_storm"
    )
    mixed = _mix(
        params.num_keys, get=0.4, short=0.25, long_=0.25, write=0.1,
        name="ss_mixed",
    )
    sequence = [calm, gusts, storm, mixed, calm]
    phases = [
        ScenarioPhase(
            f"{spec.name}_{ph}",
            params.phase_duration_us(),
            _uniform_phase(params, spec),
        )
        for ph, spec in enumerate(sequence)
    ]
    return ScenarioSchedule(
        name="scan_storm",
        seed=params.seed,
        phases=tuple(phases),
        num_keys=params.num_keys,
        preload_keys=params.num_keys,
        arrival_rate_ops_s=params.arrival_rate_ops_s,
        description=SCENARIOS["scan_storm"].description,
    )


@_register(
    "write_flood",
    "write ratio ramps 0.2 -> 0.85 forcing flush/compaction churn and "
    "block invalidation, then two read-heavy recovery phases",
)
def _write_flood(params: ScenarioParams) -> ScenarioSchedule:
    start = _mix(
        params.num_keys, get=0.7, short=0.1, write=0.2, name="wf_ramp"
    )
    peak = _mix(
        params.num_keys, get=0.1, short=0.05, write=0.85, name="wf_peak"
    )
    recover = _mix(params.num_keys, get=0.85, short=0.05, write=0.1, name="wf_recover")
    specs = interpolate_specs(start, peak, 4) + [recover, recover]
    phases = [
        ScenarioPhase(
            f"flood{ph}",
            params.phase_duration_us(),
            _uniform_phase(params, spec),
        )
        for ph, spec in enumerate(specs)
    ]
    return ScenarioSchedule(
        name="write_flood",
        seed=params.seed,
        phases=tuple(phases),
        num_keys=params.num_keys,
        preload_keys=params.num_keys,
        arrival_rate_ops_s=params.arrival_rate_ops_s,
        description=SCENARIOS["write_flood"].description,
    )


@_register(
    "tenant_churn",
    "tenants arrive staggered one phase apart, then the founding tenant "
    "departs — the cache must keep re-learning who matters",
)
def _tenant_churn(params: ScenarioParams) -> ScenarioSchedule:
    spec = _mix(
        params.num_keys, get=0.6, short=0.2, write=0.2, name="churn_mix"
    )
    n_phases = params.tenants + 3
    phases = []
    for ph in range(n_phases):
        tenants: Dict[str, TenantPhase] = {}
        for t in range(params.tenants):
            arrived = ph >= t
            departed = t == 0 and ph >= n_phases - 2
            if arrived and not departed:
                tenants[params.tenant_name(t)] = TenantPhase(
                    spec, params.phase_ops, 1.0
                )
        phases.append(
            ScenarioPhase(f"epoch{ph}", params.phase_duration_us(), tenants)
        )
    return ScenarioSchedule(
        name="tenant_churn",
        seed=params.seed,
        phases=tuple(phases),
        num_keys=params.num_keys,
        preload_keys=params.num_keys,
        arrival_rate_ops_s=params.arrival_rate_ops_s,
        description=SCENARIOS["tenant_churn"].description,
    )


@_register(
    "keyspace_growth",
    "the live keyspace grows 1x -> 3x across phases; only the first "
    "third is preloaded, the rest comes into existence through writes",
)
def _keyspace_growth(params: ScenarioParams) -> ScenarioSchedule:
    n_phases = 5
    max_keys = params.num_keys * 3
    phases = []
    for ph in range(n_phases):
        keys = params.num_keys + (max_keys - params.num_keys) * ph // (
            n_phases - 1
        )
        spec = _mix(
            keys, get=0.45, short=0.1, write=0.45, name=f"grow{ph}"
        )
        phases.append(
            ScenarioPhase(
                f"grow{ph}",
                params.phase_duration_us(),
                _uniform_phase(params, spec),
            )
        )
    return ScenarioSchedule(
        name="keyspace_growth",
        seed=params.seed,
        phases=tuple(phases),
        num_keys=max_keys,
        preload_keys=params.num_keys,
        arrival_rate_ops_s=params.arrival_rate_ops_s,
        description=SCENARIOS["keyspace_growth"].description,
    )
