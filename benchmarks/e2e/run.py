"""End-to-end benchmark: runs, sets, compare and the timed-run entry point.

A run executes one workload in fresh child processes
(:mod:`benchmarks.e2e.child`), one child at a time, for about
``--seconds``; a traced run starts with one profiled child. From the
repository root::

    # A set: --repeats untraced runs plus one traced run per workload.
    PYTHONPATH=src python -m benchmarks.e2e.run --out e2e.json \\
        [--seed S] [--repeats N] [--seconds S] [--workloads a,b]

    # Compare two sets, one row per workload x end-to-end metric.
    PYTHONPATH=src python -m benchmarks.e2e.run --compare BASE.json NEW.json

    # One timed run of one workload; the last output line is one JSON
    # object with the end-to-end metrics (--trace 0) or the per-layer
    # metrics (--trace 1).
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0

    # Re-capture expected.json at the default seeds.
    PYTHONPATH=src python -m benchmarks.e2e.run --update-expected

Every mode but --compare checks each unit's outputs and exits 1 when a
check fails; it exits 2 without a result when a child cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
import typing

if __package__ in (None, ""):
    # Run as a script: make this package and the source tree importable.
    _ROOT = pathlib.Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from benchmarks.e2e import check, layers  # noqa: E402

try:
    from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402
except ModuleNotFoundError as missing:
    raise SystemExit(f"e2e: error: {missing}: run from a repository checkout") from None

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXPECTED = pathlib.Path(__file__).resolve().parent / "expected.json"

#: (name, unit) of the end-to-end metrics a timed run reports.
END_TO_END = (("ref_cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

#: Reported by sets next to END_TO_END. It is 0 when all is well, so the
#: timed runs report failures through "failed" instead; any increase is
#: a regression.
FAILED_SHARE = "failed_share"

#: A timed run must end within 180 s; children get what is left of this.
RUN_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    """A child process could not produce a result at all."""


def run_child(
    workload: str, seed: typing.Optional[int], profile: bool, timeout: float = RUN_LIMIT_S
) -> dict:
    """One fresh child process measuring ``workload``; its document."""
    command = [sys.executable, "-m", "benchmarks.e2e.child", workload]
    if seed is not None:
        command += ["--seed", str(seed)]
    if profile:
        command.append("--profile")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: child ran longer than {timeout:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"{workload}: child exited {done.returncode}: {tail[0]}")
    document = json.loads(lines[-1])
    if document["setup_s"] is None:
        raise ChildFailed(f"{workload}: no rig was provisioned")
    return document


def load_expected() -> typing.Dict[str, typing.Dict[str, dict]]:
    """``expected.json``: workload -> unit -> {seed, outputs}."""
    return json.loads(EXPECTED.read_text())


def summarize(values: typing.Iterable[float]) -> dict:
    """Median, quartiles and n of one metric's runs."""
    values = list(values)
    median = statistics.median(values)
    q1, __, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


# ----------------------------------------------------------------------
# Runs


def measure_run(
    workload: str, seed: typing.Optional[int], seconds: int, trace: bool
) -> typing.Tuple[typing.List[dict], typing.Optional[dict]]:
    """One run: with ``trace`` one profiled child first, then untraced
    children of ``workload`` for about ``seconds`` (at least one).
    Returns the untraced child documents and the profiled one."""
    start = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    profiled = run_child(workload, seed, True, remaining()) if trace else None
    untraced: typing.List[dict] = []
    durations: typing.List[float] = []
    while True:
        began = time.perf_counter()
        untraced.append(run_child(workload, seed, False, remaining()))
        durations.append(time.perf_counter() - began)
        # Start another child only if it should end inside the window.
        if time.perf_counter() - start + statistics.mean(durations) > seconds:
            return untraced, profiled


def end_to_end_values(untraced: typing.Sequence[dict]) -> typing.Dict[str, float]:
    """The end-to-end metrics of one run's untraced children, each the
    median child's."""
    return {name: statistics.median(child[name] for child in untraced)
            for name, __ in END_TO_END}


def timed_run(workload: str, seed: typing.Optional[int], seconds: int, trace: bool) -> int:
    """One run of ``workload``, printing the result line last. With
    ``trace`` it reports the per-layer metrics instead of the end-to-end
    ones."""
    untraced, profiled = measure_run(workload, seed, seconds, trace)
    children = untraced + ([profiled] if profiled is not None else [])
    attempted, failed, problems = check.judge(children, load_expected().get(workload, {}))
    if profiled is not None:
        values = layers.per_layer_metrics(profiled, untraced)
        units = {name: unit for name, unit, __ in layers.PER_LAYER}
    else:
        values = end_to_end_values(untraced)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"{workload}: {len(untraced)} untraced children"
          + (", 1 profiled child" if profiled is not None else ""))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# Sets


def run_set(
    workloads: typing.Sequence[str],
    seed: typing.Optional[int],
    repeats: int,
    seconds: int,
    out: str,
) -> int:
    """``repeats`` untraced runs of every workload, interleaved, then one
    traced run each; writes the set to ``out`` and prints it."""
    expected = load_expected()
    runs: typing.Dict[str, typing.List[typing.List[dict]]] = {name: [] for name in workloads}
    for repeat in range(repeats):
        for name in workloads:
            print(f"[{repeat + 1}/{repeats}] {name}", file=sys.stderr, flush=True)
            runs[name].append(measure_run(name, seed, seconds, False)[0])
    results: typing.Dict[str, dict] = {}
    failed_any = False
    for name in workloads:
        print(f"[traced] {name}", file=sys.stderr, flush=True)
        untraced, profiled = measure_run(name, seed, seconds, True)
        assert profiled is not None
        # One reference table for the whole set: every run of a unit and
        # seed must agree with the first.
        references: typing.Dict[typing.Tuple[str, int], dict] = {}
        shares, problems = [], []
        for children in runs[name] + [untraced + [profiled]]:
            attempted, failed, found = check.judge(children, expected.get(name, {}), references)
            shares.append(failed / attempted)
            problems += found
        values = [end_to_end_values(children) for children in runs[name]]
        end_to_end = {
            metric: {"unit": unit, **summarize(run[metric] for run in values)}
            for metric, unit in END_TO_END
        }
        end_to_end[FAILED_SHARE] = {"unit": "ratio", **summarize(shares)}
        per_layer = layers.per_layer_metrics(profiled, untraced)
        results[name] = {
            "end_to_end": end_to_end,
            "per_layer": {metric: {"value": per_layer[metric], "unit": unit}
                          for metric, unit, __ in layers.PER_LAYER},
            "problems": problems,
        }
        failed_any = failed_any or bool(problems)
    document = {
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "workloads": results,
    }
    pathlib.Path(out).write_text(json.dumps(document, indent=1) + "\n")
    print_set(document)
    print(f"wrote {out}")
    return 1 if failed_any else 0


def print_set(document: dict) -> None:
    """Every metric of a set by name, with its unit."""
    print(f"{'workload':<22} {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for name, result in document["workloads"].items():
        for metric, row in result["end_to_end"].items():
            print(f"{name:<22} {metric:<30} {row['median']:>12.6g} {row['q1']:>12.6g} "
                  f"{row['q3']:>12.6g} {row['n']:>3}  {row['unit']}")
    for name, result in document["workloads"].items():
        for metric, row in result["per_layer"].items():
            print(f"{name:<22} {metric:<30} {row['value']:>12.6g} {'':>12} {'':>12} "
                  f"{'':>3}  {row['unit']}")
        for problem in result["problems"]:
            print(f"FAILED {problem}")


# ----------------------------------------------------------------------
# Compare


def bounds() -> typing.Dict[str, typing.Tuple[float, str]]:
    """metric -> (regression bound, better) from ``BENCHMARK.json``, plus
    ``failed_share``, on which any increase is a regression."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {metric["name"]: (metric["bound"], metric["better"]) for metric in spec["end_to_end"]}
    table[FAILED_SHARE] = (0.0, "lower")
    return table


def verdict(base: dict, new: dict, bound: float, better: str = "lower") -> str:
    """better, worse, unchanged or unresolved, for two summaries.

    A change counts when the medians differ by more than ``bound``
    (relative; absolute when the base median is 0). When the base's
    interquartile range is wider than the bound the verdict is
    unresolved, unless every run of one side beats every run of the other.
    A zero bound (``failed_share``) compares means, so that one more
    failed run anywhere in the set is worse.
    """
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        change = sign * (statistics.mean(new["values"]) - statistics.mean(base["values"]))
        return "worse" if change > 0 else "better" if change < 0 else "unchanged"
    scale = abs(base["median"]) or 1.0
    change = sign * (new["median"] - base["median"]) / scale
    spread = (base["q3"] - base["q1"]) / scale
    if spread > bound:
        if all(sign * a < sign * b for a in new["values"] for b in base["values"]):
            return "better"
        if all(sign * a > sign * b for a in new["values"] for b in base["values"]):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(base_path: str, new_path: str) -> int:
    """Print one row per workload x end-to-end metric, then the
    per-layer deltas as information; exits 1 if any row is worse."""
    base = json.loads(pathlib.Path(base_path).read_text())["workloads"]
    new = json.loads(pathlib.Path(new_path).read_text())["workloads"]
    table = bounds()
    worse = False
    print(f"{'workload':<22} {'metric':<14} {'base median [q1, q3] n':>34} "
          f"{'new median [q1, q3] n':>34} {'change':>8}  verdict")

    def cell(row: dict) -> str:
        return f"{row['median']:.4g} [{row['q1']:.4g}, {row['q3']:.4g}] {row['n']}"

    for name in base:
        if name not in new:
            print(f"{name:<22} missing from {new_path}")
            continue
        for metric, (bound, better) in table.items():
            old_row = base[name]["end_to_end"][metric]
            new_row = new[name]["end_to_end"][metric]
            result = verdict(old_row, new_row, bound, better)
            worse = worse or result == "worse"
            scale = abs(old_row["median"]) or 1.0
            change = (new_row["median"] - old_row["median"]) / scale
            print(f"{name:<22} {metric:<14} {cell(old_row):>34} {cell(new_row):>34} "
                  f"{change:>+8.1%}  {result}")
    print("\nper-layer (information only)")
    for name in base:
        for metric, row in base[name]["per_layer"].items():
            if name not in new or metric not in new[name]["per_layer"]:
                continue
            old_value = row["value"]
            new_value = new[name]["per_layer"][metric]["value"]
            change = f"{(new_value - old_value) / old_value:+.1%}" if old_value else ""
            print(f"{name:<22} {metric:<30} {old_value:>12.6g} -> {new_value:<12.6g} "
                  f"{change:>8}  {row['unit']}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
# expected.json


def update_expected() -> int:
    """Re-capture every unit's outputs at its default seed."""
    document: typing.Dict[str, typing.Dict[str, dict]] = {}
    for name in WORKLOADS:
        child = run_child(name, None, False)
        for unit in child["units"]:
            if unit["error"] is not None:
                raise ChildFailed(f"{name}/{unit['unit']} raised {unit['error']}")
            problems = check.identities(unit["outputs"])
            if problems:
                raise ChildFailed(f"{name}/{unit['unit']}: {problems[0]}")
        document[name] = {
            unit["unit"]: {"seed": unit["seed"], "outputs": unit["outputs"]}
            for unit in child["units"]
        }
    EXPECTED.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS), help="one timed run")
    mode.add_argument("--out", metavar="PATH", help="run a set and write it here")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two sets")
    mode.add_argument("--update-expected", action="store_true",
                      help="re-capture expected.json at the default seeds")
    parser.add_argument("--seed", type=int, default=None,
                        help="replace every unit's default seed")
    parser.add_argument("--seconds", type=int, default=10,
                        help="length of one run (default 10; BENCHMARK.json's "
                             "run_seconds is what the gate uses)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a timed run")
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced runs per workload in a set (default 5)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads of a set (default all)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    workloads = [name for name in args.workloads.split(",") if name]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown or not workloads:
        parser.error(f"unknown workloads {unknown}; known: {sorted(WORKLOADS)}")
    try:
        if args.compare:
            return compare(*args.compare)
        if args.update_expected:
            return update_expected()
        if args.out:
            return run_set(workloads, args.seed, args.repeats, args.seconds, args.out)
        return timed_run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as error:
        print(f"e2e: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
