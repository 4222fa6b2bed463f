"""Workload-model experiments: what the paper's generator cannot show.

The paper offers load at a fixed rate over disjoint per-thread key
spaces (Sections 4.1/4.3) — no two writes ever collide and arrivals are
perfectly smooth. These experiments run the same benchmark units under
declarative :mod:`repro.workloads` specs and report what that hides:

* ``skew_sweep_keyvalue`` — KeyValue read-modify-write under disjoint /
  uniform / zipfian / hotspot key access. On execute-order-validate
  systems (Fabric) hot keys turn into MVCC invalidations; on Corda they
  turn into notary rejections and cheaper vault scans; order-execute
  systems commit the same payload stream regardless — contention
  insensitivity is itself a finding.
* ``burst_capacity`` — constant vs. rate-preserving on/off bursts at
  the same average offered rate. Batch-interval systems absorb bursts
  in their block cadence; queue-bound systems pay for them in p99.
* ``mix_readwrite_keyvalue`` — Get/Set ratio sweep: how much write-path
  cost the read share buys back per system.

Rows report p50/p99 tails and the invalidated-transaction count next
to the paper's MTPS/MFLS/NoT, because those are where workload shape
shows up first.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.experiments.base import Case, CaseResult, Experiment, ExperimentRun
from repro.workloads import AccessSpec, ArrivalSpec, PhaseOverride, WorkloadSpec

#: Moderate per-client rates, comfortably under each system's knee at
#: the default scale, so workload effects are not drowned by saturation.
WORKLOAD_RATES: typing.Dict[str, int] = {
    "corda_os": 4,
    "corda_enterprise": 4,
    "bitshares": 100,
    "fabric": 100,
    "quorum": 20,
    "sawtooth": 4,
    "diem": 20,
}

#: The access distributions the skew sweep compares.
SKEW_ACCESS: typing.Dict[str, AccessSpec] = {
    "disjoint": AccessSpec(kind="disjoint"),
    "uniform": AccessSpec(kind="uniform", key_space=200, shared=True),
    "zipfian": AccessSpec(kind="zipfian", theta=0.99, key_space=200, shared=True),
    "hotspot": AccessSpec(
        kind="hotspot", hot_fraction=0.1, hot_prob=0.9, key_space=200, shared=True
    ),
}


@dataclasses.dataclass
class WorkloadCaseResult(CaseResult):
    """Measured numbers for one workload case, tails included."""

    def row(self) -> typing.List[str]:
        phase = self.phase_result
        return [
            self.case.case_id,
            f"{phase.mtps.mean:.2f}",
            f"{phase.mfls.mean:.2f}",
            f"{phase.p50.mean:.2f}",
            f"{phase.p99.mean:.2f}",
            f"{phase.received.mean:.0f}/{phase.expected.mean:.0f}",
            f"{phase.invalidated.mean:.0f}",
        ]


@dataclasses.dataclass
class WorkloadRun(ExperimentRun):
    """The outcome of one workload experiment."""

    case_results: typing.List[WorkloadCaseResult]

    def render(self) -> str:
        from repro.coconut.report import format_table

        table = format_table(
            ["Case", "MTPS", "MFLS (s)", "p50 (s)", "p99 (s)", "NoT", "Invalid"],
            [result.row() for result in self.case_results],
        )
        return f"{self.title}\n{table}"


class WorkloadExperiment(Experiment):
    """A named list of cases rendered with latency tails and conflicts."""

    result_type = WorkloadCaseResult
    run_type = WorkloadRun


def _case(
    case_id: str,
    system: str,
    workload: WorkloadSpec,
    phase: str = "Set",
    phases: typing.Optional[typing.Tuple[str, ...]] = ("Set",),
    seed: int = 2330,
) -> Case:
    return Case(
        case_id=case_id,
        config_kwargs=dict(
            system=system,
            iel="KeyValue",
            rate_limit=WORKLOAD_RATES[system],
            phases=phases,
            workload=workload,
            seed=seed,
        ),
        phase=phase,
        recommended_scale=0.05,
    )


def skew_sweep_keyvalue() -> WorkloadExperiment:
    """KeyValue-Rmw under increasingly skewed key access."""
    systems = ("fabric", "quorum", "corda_os")
    cases = []
    for system in systems:
        for access_name, access in SKEW_ACCESS.items():
            spec = WorkloadSpec(
                name=f"skew-{access_name}",
                access=access,
                phases=(("Set", PhaseOverride(mix=(("Rmw", 1.0),))),),
            )
            cases.append(_case(f"{system} {access_name}", system, spec))
    return WorkloadExperiment(
        "skew_sweep_keyvalue",
        "Workloads: KeyValue read-modify-write under key skew "
        "(shared 200-key universe, theta=0.99)",
        cases,
    )


def burst_capacity() -> WorkloadExperiment:
    """Constant vs. rate-preserving burst arrivals, same average rate."""
    burst = WorkloadSpec(
        name="burst-5on-5off",
        arrival=ArrivalSpec(kind="burst", on_s=5.0, off_s=5.0),
    )
    cases = []
    for system in WORKLOAD_RATES:
        cases.append(_case(f"{system} constant", system, WorkloadSpec()))
        cases.append(_case(f"{system} burst", system, burst))
    return WorkloadExperiment(
        "burst_capacity",
        "Workloads: constant vs. on/off burst arrivals at equal average "
        "rate (5 s on / 5 s off, 2x burst factor)",
        cases,
    )


def mix_readwrite_keyvalue() -> WorkloadExperiment:
    """Get/Set ratio sweep over a uniform shared key universe."""
    systems = ("fabric", "quorum", "corda_os")
    mixes = {
        "0% reads": {"Set": 1.0},
        "50% reads": {"Get": 1.0, "Set": 1.0},
        "90% reads": {"Get": 9.0, "Set": 1.0},
    }
    access = AccessSpec(kind="uniform", key_space=200, shared=True)
    cases = []
    for system in systems:
        for mix_name, mix in mixes.items():
            spec = WorkloadSpec(
                name=f"mix-{mix_name.split('%')[0]}r",
                access=access,
                mix=tuple(sorted(mix.items())),
            )
            cases.append(_case(f"{system} {mix_name}", system, spec))
    return WorkloadExperiment(
        "mix_readwrite_keyvalue",
        "Workloads: Get/Set operation-mix sweep (uniform shared keys)",
        cases,
    )
