"""Timing harness and baseline files for the hot-path benchmarks.

The harness is deliberately tiny: time a callable with warmup rounds
followed by measured repeats and report the *minimum* — on a noisy
machine min-of-N is the closest observable to the code's true cost,
since every source of interference only ever adds time. Results are
persisted as JSON baseline files (``BENCH_*.json``) so a later run —
locally or in CI — can be checked against the committed numbers with a
generous regression threshold.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import platform
import time
import typing

from repro.sim.collector import collector_paused


@dataclasses.dataclass(frozen=True)
class TimingResult:
    """One benchmark target's measurement."""

    name: str
    #: Best (minimum) seconds per call across the measured repeats.
    best: float
    #: Mean seconds per call across the measured repeats.
    mean: float
    #: Per-repeat seconds-per-call samples, in measurement order.
    samples: typing.Tuple[float, ...]
    #: Inner loop iterations per repeat (best/mean are already per-call).
    loops: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "best": self.best,
            "mean": self.mean,
            "samples": list(self.samples),
            "loops": self.loops,
        }


def time_callable(
    fn: typing.Callable[[], object],
    name: str = "",
    repeats: int = 5,
    warmup: int = 1,
    loops: int = 1,
) -> TimingResult:
    """Time ``fn`` with ``warmup`` discarded rounds then ``repeats`` rounds.

    Each round calls ``fn`` ``loops`` times; samples are per-call. The
    callable owns its setup — pass a closure that rebuilds fresh state
    per call if the work is not idempotent.

    The cyclic garbage collector is disabled for the duration of the
    warmup and measurement loops (and restored afterwards, even if the
    callable raises): a collection landing inside one repeat would
    charge an unrelated pause to that sample, which min-of-N cannot
    filter when the callable allocates enough to trigger GC every round.
    """
    if repeats < 1:
        raise ValueError(f"need at least one repeat, got {repeats}")
    if loops < 1:
        raise ValueError(f"need at least one loop per repeat, got {loops}")
    with collector_paused():
        for __ in range(warmup * loops):
            fn()
        counter = time.perf_counter
        samples = []
        for __ in range(repeats):
            start = counter()
            for __ in range(loops):
                fn()
            samples.append((counter() - start) / loops)
    return TimingResult(
        name=name or getattr(fn, "__name__", "anonymous"),
        best=min(samples),
        mean=sum(samples) / len(samples),
        samples=tuple(samples),
        loops=loops,
    )


# ----------------------------------------------------------------------
# Baseline files


def write_baseline(
    path: typing.Union[str, pathlib.Path],
    results: typing.Sequence[TimingResult],
    notes: typing.Optional[dict] = None,
    counts: typing.Optional[typing.Mapping[str, int]] = None,
) -> dict:
    """Write a ``BENCH_*.json`` baseline; returns the written document.

    ``counts`` are exact, machine-independent work counts (for example
    hash calls per unit) that :func:`check_baseline` compares exactly.
    """
    document = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "results": {result.name: result.to_dict() for result in results},
    }
    if notes:
        document["notes"] = notes
    if counts is not None:
        document["counts"] = dict(counts)
    pathlib.Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def load_baseline(path: typing.Union[str, pathlib.Path]) -> dict:
    """Read a baseline document written by :func:`write_baseline`."""
    return json.loads(pathlib.Path(path).read_text())


def check_baseline(
    baseline: dict,
    results: typing.Sequence[TimingResult],
    threshold: float = 3.0,
    counts: typing.Optional[typing.Mapping[str, int]] = None,
) -> typing.List[str]:
    """Compare fresh results against a baseline document.

    Returns a list of human-readable regression messages; empty means
    every measured target stayed within ``threshold`` times its
    committed best and every one of ``counts`` equals its committed
    count. The threshold is deliberately generous — baselines are
    captured on one machine and checked on another, so only
    order-of-magnitude regressions (an optimization silently reverted)
    should trip it. Counts do not depend on the machine, so any
    difference is a change in the work the code does.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    recorded = baseline.get("results", {})
    problems = []
    for result in results:
        entry = recorded.get(result.name)
        if entry is None:
            problems.append(f"{result.name}: not present in baseline")
            continue
        limit = entry["best"] * threshold
        if result.best > limit:
            problems.append(
                f"{result.name}: best {result.best:.6f}s exceeds "
                f"{threshold:g}x baseline {entry['best']:.6f}s"
            )
    recorded_counts = baseline.get("counts", {})
    for name, count in (counts or {}).items():
        if recorded_counts.get(name) != count:
            problems.append(
                f"{name}: count {count} differs from baseline {recorded_counts.get(name)}"
            )
    return problems
