"""Batch execution of benchmark units with content-addressed result caching.

Every batch of independent benchmark units (experiment cases, sweep
points, resilience scenarios, search probes) runs through one
:class:`~repro.parallel.executor.Executor`: in-process or fanned out
over a ``multiprocessing`` pool, each distinct unit once, skipping the
units a prior run with an identical fingerprint has cached.
Determinism guarantee: for any jobs count, per-unit results are
byte-identical — every unit owns its seeded RNG streams and workers
rebuild rigs from the same picklable config.

Names are imported on first use (DESIGN §10), so reading a fingerprint
or a cache entry does not load the runner.
"""

from repro._exports import lazy_exports

#: Public name -> the module that defines it, imported on first use.
_EXPORTS = {
    "Executor": "repro.parallel.executor",
    "ResultCache": "repro.parallel.cache",
    "UnitOutcome": "repro.parallel.executor",
    "config_payload": "repro.parallel.fingerprint",
    "execute_unit": "repro.parallel.executor",
    "unit_fingerprint": "repro.parallel.fingerprint",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
