"""Registry of all paper experiments."""

from __future__ import annotations

import typing

from repro.analysis.compare import ShapeCheck
from repro.experiments import tables
from repro.experiments.capacity import (
    capacity_bankingapp,
    capacity_donothing,
    capacity_keyvalue,
)
from repro.experiments.figures import (
    ScalabilityExperiment,
    fig3_checks,
    fig3_heatmap,
    fig4_checks,
    fig4_latency_heatmap,
    fig5_checks,
)
from repro.experiments.resilience import resilience_leader_crash, resilience_partition
from repro.experiments.workloads import (
    burst_capacity,
    mix_readwrite_keyvalue,
    skew_sweep_keyvalue,
)

_BUILDERS: typing.Dict[str, typing.Callable[[], object]] = {
    "fig3": fig3_heatmap,
    "fig4": fig4_latency_heatmap,
    "fig5": ScalabilityExperiment,
    **tables.TABLE_BUILDERS,
    "resilience_leader_crash": resilience_leader_crash,
    "resilience_partition": resilience_partition,
    "capacity_donothing": capacity_donothing,
    "capacity_keyvalue": capacity_keyvalue,
    "capacity_bankingapp": capacity_bankingapp,
    "skew_sweep_keyvalue": skew_sweep_keyvalue,
    "burst_capacity": burst_capacity,
    "mix_readwrite_keyvalue": mix_readwrite_keyvalue,
}

#: Every reproducible artifact, in paper order.
EXPERIMENT_IDS: typing.Tuple[str, ...] = tuple(_BUILDERS)


def build_experiment(experiment_id: str) -> object:
    """Construct one experiment by id."""
    if experiment_id not in _BUILDERS:
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {list(_BUILDERS)}")
    return _BUILDERS[experiment_id]()


#: The shape checks that read only their own experiment's run: every
#: table's and figure's but Fig. 4's.
_CHECKS: typing.Dict[str, typing.Callable[..., typing.List[ShapeCheck]]] = {
    "fig3": fig3_checks,
    "fig5": fig5_checks,
    **tables.TABLE_CHECKS,
}


def shape_checks(
    experiment_id: str, runs: typing.Mapping[str, object]
) -> typing.List[ShapeCheck]:
    """The paper-shape checks on ``runs[experiment_id]``, or ``[]`` for an
    experiment beyond the paper's tables and figures. Fig. 4's compare
    against Fig. 3's DoNothing cells, so they also read ``runs["fig3"]``:
    the same configurations, run once in the same pass."""
    run = runs[experiment_id]
    if experiment_id == "fig4":
        return fig4_checks(run, runs["fig3"])
    checks = _CHECKS.get(experiment_id)
    return checks(run) if checks is not None else []
