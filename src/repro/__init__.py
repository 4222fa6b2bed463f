"""Reproduction of "An End-to-End Performance Comparison of Seven
Permissioned Blockchain Systems" (Geyer et al., Middleware '23).

The package reimplements the paper's COCONUT benchmarking framework and
protocol-level models of the seven systems it evaluates, on top of a
deterministic discrete-event simulation. Quick start::

    from repro import BenchmarkConfig, BenchmarkRunner

    config = BenchmarkConfig(system="fabric", iel="KeyValue",
                             rate_limit=200, scale=0.05, repetitions=1)
    result = BenchmarkRunner().run(config)
    print(result.phase("Set").mtps.mean)

Sub-packages: :mod:`repro.sim` (simulation kernel), :mod:`repro.net`
(network), :mod:`repro.crypto`, :mod:`repro.storage`,
:mod:`repro.consensus` (protocol engines), :mod:`repro.iel` (smart
contracts), :mod:`repro.chains` (the seven system models),
:mod:`repro.coconut` (the benchmarking framework), :mod:`repro.workloads`,
:mod:`repro.stream` (streaming metrics), :mod:`repro.faults`,
:mod:`repro.invariants`, :mod:`repro.trace`, :mod:`repro.experiments`
(every paper table and figure), :mod:`repro.search` (capacity search),
:mod:`repro.parallel` (multi-process execution + result caching) and
:mod:`repro.analysis`.

A run imports only the code it runs: the names below, and those of the
sub-packages with many models or exporters, are imported on first use
(PEP 562), so ``import repro`` loads nothing else (DESIGN §10).
"""

from repro._exports import lazy_exports

__version__ = "1.1.0"

#: Public name -> the module that defines it, imported on first use.
_EXPORTS = {
    "BenchmarkConfig": "repro.coconut.config",
    "BenchmarkRunner": "repro.coconut.runner",
    "DeploymentSpec": "repro.chains.base",
    "EXPERIMENT_IDS": "repro.experiments.registry",
    "ParallelExecutor": "repro.parallel.executor",
    "ResultCache": "repro.parallel.cache",
    "ResultStore": "repro.coconut.results",
    "SYSTEM_NAMES": "repro.chains.registry",
    "SerialExecutor": "repro.parallel.executor",
    "build_executor": "repro.parallel.executor",
    "build_experiment": "repro.experiments.registry",
    "create_system": "repro.chains.registry",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
