"""Shared fixtures for the benchmark harness.

Every bench regenerates one paper artifact: it runs the experiment
(scaled-down by default; set ``REPRO_FULL_SCALE=1`` for the paper's full
300 s windows, ``REPRO_REPS=3`` for the paper's repetition count), prints
the paper-vs-measured table and asserts the shape — who wins, which
configurations fail — via :mod:`repro.analysis.compare`.
"""

def run_once(benchmark, func):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
