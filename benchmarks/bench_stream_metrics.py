"""Streaming-metrics benchmarks: runtime and memory-bound observables.

Times benchmark units end to end and records the peak number of payload
records any client tracked at once — the quantity the streaming
pipeline exists to bound. Records retire the moment their payload
resolves, so the peak follows the load in flight and does not grow with
the run's length. The per-record measurement path that retained every
record until the end of the run is gone; its numbers on these units are
frozen below for comparison: its peak was each client's whole offered
load, and its runtime is ``EXACT_PATH_BEST_SECONDS``.

Usage::

    PYTHONPATH=src python benchmarks/bench_stream_metrics.py              # print
    PYTHONPATH=src python benchmarks/bench_stream_metrics.py --update BENCH_stream.json
    PYTHONPATH=src python benchmarks/bench_stream_metrics.py --check BENCH_stream.json \
        --threshold 3.0 --quick

``--check`` exits non-zero when any timed target is slower than
``threshold`` times the committed best, and *always* fails if the run
stops being memory-bounded (peak live records reaching half the offered
load on a fast system is a logic regression, not machine noise).
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.perf import TimingResult, check_baseline, load_baseline, time_callable, write_baseline
from repro.storage.transaction import reset_id_counters

#: Elevated-rate units: enough offered load that the gap between
#: offered and tracked records is unmistakable, cheap enough to time in
#: CI.
CONFIGS = {
    "fabric": dict(system="fabric", iel="KeyValue", rate_limit=50,
                   scale=0.05, repetitions=1, seed=3),
    "quorum": dict(system="quorum", iel="KeyValue", rate_limit=25,
                   scale=0.05, repetitions=1, seed=4),
}

#: Best wall seconds of each unit through the retired per-record path:
#: the minimum of 30 GC-off runs, interleaved with runs of the current
#: path, on the host of the committed BENCH_stream.json (2-vCPU x86_64
#: guest, Python 3.11) just before that path was deleted. There the
#: current path's best was 1.00x (fabric) and 1.02x (quorum) of these.
#: The host's speed drifts by up to 40 % over an hour, so the
#: ``stream_over_exact_runtime`` note is only meaningful on a quiet host.
EXACT_PATH_BEST_SECONDS = {"fabric": 0.4297, "quorum": 0.2323}


def peak_and_offered(config: BenchmarkConfig) -> typing.Tuple[int, int]:
    """Most payload records any client held at once during one run, and
    the records per client it offered (the retired path's peak)."""
    reset_id_counters()
    runner = BenchmarkRunner(keep_last_rig=False)
    result = runner.run(config)
    offered = sum(
        rep.expected for phase in result.phases.values() for rep in phase.repetitions
    )
    return runner.last_stream_peak, offered // config.client_count


def bench_unit(name: str, repeats: int) -> TimingResult:
    """Time one full unit."""
    config = BenchmarkConfig(**CONFIGS[name])

    def run_unit():
        reset_id_counters()
        BenchmarkRunner(keep_last_rig=False).run(config)

    return time_callable(run_unit, f"{name}_stream", repeats=repeats, warmup=1)


def run_all(quick: bool = False) -> typing.Tuple[typing.List[TimingResult], dict]:
    """Run every target; returns (results, notes) for the baseline."""
    repeats = 1 if quick else 3
    results: typing.List[TimingResult] = []
    peaks: typing.Dict[str, typing.Dict[str, int]] = {}
    overheads: typing.Dict[str, float] = {}
    for name in CONFIGS:
        timed = bench_unit(name, repeats=repeats)
        results.append(timed)
        overheads[name] = round(timed.best / EXACT_PATH_BEST_SECONDS[name], 3)
        peak, offered = peak_and_offered(BenchmarkConfig(**CONFIGS[name]))
        peaks[name] = {"offered": offered, "stream": peak}
    notes = {
        "peak_tracked_records": peaks,
        "stream_over_exact_runtime": overheads,
        "exact_path_best_seconds": EXACT_PATH_BEST_SECONDS,
        "quick": quick,
    }
    return results, notes


def check_memory_bound(notes: dict) -> typing.List[str]:
    """Logic (not timing) regressions: clients must track far fewer
    records than they offer on these fast systems."""
    problems = []
    for name, peaks in notes["peak_tracked_records"].items():
        if peaks["stream"] * 2 >= peaks["offered"]:
            problems.append(
                f"{name}: peak {peaks['stream']} live records not well under "
                f"{peaks['offered']} offered per client — record retirement regressed"
            )
    return problems


def _print_report(results: typing.Sequence[TimingResult], notes: dict) -> None:
    print(f"{'target':<16} {'best (s)':>12} {'mean (s)':>12}")
    for result in results:
        print(f"{result.name:<16} {result.best:>12.6f} {result.mean:>12.6f}")
    print()
    for name, peaks in notes["peak_tracked_records"].items():
        ratio = peaks["offered"] / peaks["stream"] if peaks["stream"] else float("inf")
        print(
            f"{name}: peak tracked records {peaks['stream']} of "
            f"{peaks['offered']} offered per client ({ratio:.1f}x fewer), "
            f"runtime {notes['stream_over_exact_runtime'][name]:.2f}x the "
            f"retired per-record path"
        )


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", metavar="PATH", help="write a fresh baseline file")
    parser.add_argument("--check", metavar="PATH", help="check against a committed baseline")
    parser.add_argument(
        "--threshold", type=float, default=3.0,
        help="regression multiplier for --check (default 3.0)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repeats (CI smoke); work per call is unchanged",
    )
    args = parser.parse_args(argv)

    results, notes = run_all(quick=args.quick)
    _print_report(results, notes)

    problems = check_memory_bound(notes)
    if args.update:
        write_baseline(args.update, results, notes=notes)
        print(f"\nwrote baseline {args.update}")
    if args.check:
        problems += check_baseline(load_baseline(args.check), results, threshold=args.threshold)
    if problems:
        print(f"\nFAIL:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    if args.check:
        print(f"\nOK: all targets within {args.threshold:g}x of {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
