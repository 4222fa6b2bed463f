"""repro.workloads — declarative workload modeling for COCONUT runs.

A :class:`WorkloadSpec` describes *how* load is offered, orthogonally to
*how much* (``BenchmarkConfig.rate_limit``): the arrival process per
workload thread, the key/account access distribution, the per-phase
operation mix, and optional multi-phase scenario overrides. Specs are
plain JSON documents (``coconut run --workload plan.json``) mirroring
the fault-plan design, and all randomness draws from dedicated
``workloads/...`` RNG streams so adding a spec never perturbs the
simulation, fault, or any other stream. The default spec reproduces the
pre-subsystem generator byte for byte.

Names are imported on first use (PEP 562): trace replay loads
only when a spec is built from a trace.
"""

from repro._exports import lazy_exports

#: Public name -> the module that defines it, imported on first use.
_EXPORTS = {
    "AccessSpec": "repro.workloads.spec",
    "ArrivalSpec": "repro.workloads.spec",
    "BurstSchedule": "repro.workloads.arrivals",
    "ConstantSchedule": "repro.workloads.arrivals",
    "DEFAULT_WORKLOAD": "repro.workloads.spec",
    "HotspotSampler": "repro.workloads.access",
    "Mix": "repro.workloads.spec",
    "MixSampler": "repro.workloads.mixes",
    "PhaseOverride": "repro.workloads.spec",
    "PoissonSchedule": "repro.workloads.arrivals",
    "READ_FALLBACK": "repro.workloads.mixes",
    "RampSchedule": "repro.workloads.arrivals",
    "ReplaySchedule": "repro.workloads.arrivals",
    "ResolvedPhase": "repro.workloads.spec",
    "Sampler": "repro.workloads.access",
    "Schedule": "repro.workloads.arrivals",
    "UniformSampler": "repro.workloads.access",
    "WorkloadSpec": "repro.workloads.spec",
    "ZipfianSampler": "repro.workloads.access",
    "allowed_operations": "repro.workloads.mixes",
    "build_sampler": "repro.workloads.access",
    "build_schedule": "repro.workloads.arrivals",
    "normalize_mix": "repro.workloads.spec",
    "replay_spec_from_jsonl": "repro.workloads.replay",
    "replay_times": "repro.workloads.replay",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
