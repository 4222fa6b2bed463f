"""Shared fixtures for the benchmark harness.

The pytest-benchmark benches here cover what lies beside the paper's tables and figures:
the parameter sweeps, the ablations, the extensions, the capacity search
and the executor. Each runs its experiment once (scaled-down by
default; set ``REPRO_FULL_SCALE=1`` for the paper's full 300 s windows,
``REPRO_REPS=3`` for the paper's repetition count) and asserts its shape
via :mod:`repro.analysis.compare`. The tables and figures themselves are
run and shape-checked in one pass by ``scripts/generate_experiments_md.py``.
"""

def run_once(benchmark, func):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
