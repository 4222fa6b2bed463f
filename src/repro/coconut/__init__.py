"""COCONUT — the automatiC blOckChain perfOrmaNce evalUation sysTem.

The paper's contribution (Section 3): an end-to-end blockchain
benchmarking framework. Clients (:mod:`repro.coconut.client`) drive
workloads (:mod:`repro.coconut.workload`) through per-system drivers
(:mod:`repro.coconut.bal`, the blockchain access layer), collect
finalization notifications and compute the end-to-end metrics of Section
4.5 (:mod:`repro.coconut.metrics`). The runner
(:mod:`repro.coconut.runner`) provisions a fresh deployment per
benchmark unit (:mod:`repro.coconut.provisioner`), executes the unit's
phases and persists results (:mod:`repro.coconut.results`), which the
report module renders as the paper's tables and heat maps
(:mod:`repro.coconut.report`).

Names are imported on first use (DESIGN §10): reading a configuration
or a stored result does not load the runner or the provisioner.
"""

from repro._exports import lazy_exports

#: Public name -> the module that defines it, imported on first use.
_EXPORTS = {
    "BenchmarkConfig": "repro.coconut.config",
    "BenchmarkRunner": "repro.coconut.runner",
    "CoconutClient": "repro.coconut.client",
    "MetricSummary": "repro.coconut.metrics",
    "PhaseMetrics": "repro.coconut.metrics",
    "PhaseResult": "repro.coconut.results",
    "Provisioner": "repro.coconut.provisioner",
    "ResultStore": "repro.coconut.results",
    "UNIT_PHASES": "repro.coconut.config",
    "UnitResult": "repro.coconut.results",
    "WorkloadPlan": "repro.coconut.workload",
    "aggregate": "repro.coconut.metrics",
    "confidence_interval": "repro.coconut.metrics",
    "make_driver": "repro.coconut.bal",
    "unit_for_iel": "repro.coconut.config",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
