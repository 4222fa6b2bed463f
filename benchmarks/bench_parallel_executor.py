"""Benchmarks the parallel executor against its determinism contract.

Not a paper artifact: this bench guards the `repro.parallel` subsystem's
acceptance bar — for any jobs count the per-unit results must be
byte-identical to a serial run — at bench scale, and exercises the
cache's warm path (a second pass over the same configs re-runs zero
units).
"""

from benchmarks.conftest import run_once
from repro.analysis.compare import ShapeCheck, render_checks
from repro.coconut.config import BenchmarkConfig
from repro.parallel import Executor, ResultCache


def make_configs():
    """One DoNothing unit per consensus family, at bench scale."""
    specs = [
        ("fabric", {}, 71),
        ("quorum", {}, 72),
        ("sawtooth", {}, 73),
        ("bitshares", {"block_interval": 1.0}, 74),
    ]
    return [
        BenchmarkConfig(system=system, iel="DoNothing", rate_limit=50,
                        params=params, scale=0.05, repetitions=1, seed=seed)
        for system, params, seed in specs
    ]


def test_parallel_matches_serial(benchmark, tmp_path):
    """jobs=4 fan-out and a warm cache both reproduce the serial run."""
    serial = [
        result.to_dict()
        for result in (o.result for o in Executor().run_units(make_configs()))
    ]

    def fan_out():
        cold = Executor(jobs=4, cache=ResultCache(tmp_path))
        cold_dicts = [o.result.to_dict() for o in cold.run_units(make_configs())]
        warm = Executor(jobs=4, cache=ResultCache(tmp_path))
        warm_dicts = [o.result.to_dict() for o in warm.run_units(make_configs())]
        return cold, cold_dicts, warm, warm_dicts

    cold, cold_dicts, warm, warm_dicts = run_once(benchmark, fan_out)
    print()
    print(cold.summary())
    print(warm.summary())
    checks = [
        ShapeCheck(
            "jobs=4 results byte-identical to serial",
            passed=cold_dicts == serial,
            detail=f"{len(serial)} units",
        ),
        ShapeCheck(
            "cold pass executed every unit",
            passed=(cold.ran, cold.from_cache) == (4, 0),
            detail=cold.summary(),
        ),
        ShapeCheck(
            "warm pass re-ran zero units",
            passed=(warm.ran, warm.from_cache) == (0, 4),
            detail=warm.summary(),
        ),
        ShapeCheck(
            "cache hits reproduce the serial results",
            passed=warm_dicts == serial,
            detail=f"{len(serial)} units",
        ),
    ]
    print(render_checks(checks))
    assert all(check.passed for check in checks)
