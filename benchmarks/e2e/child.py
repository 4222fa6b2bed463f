"""One measured execution of one workload, in a fresh process.

Run from the repository root as::

    PYTHONPATH=src python -m benchmarks.e2e.child WORKLOAD [--seed S] [--profile]

The last line of standard output is one JSON document: set-up and unit
CPU times, as measured and rescaled by :mod:`benchmarks.e2e.probe`, and
peak RSS of the process, and per unit its outputs and the counters read
from public state. With ``--profile`` the units run under stdlib
``cProfile`` (started here, nothing in ``src/`` changes), without probes,
and the document also carries the per-layer self times, cross-layer call
counts and exact boundary call counts.
"""

import time

from benchmarks.e2e import probe

#: Samples the host's speed from before repro is imported, when this
#: file runs as a program.
PROBE = probe.Probe()
if __name__ == "__main__":
    PROBE.start()
#: ``setup_s`` is measured from here, in thread CPU time: before repro
#: is imported.
_T0 = time.thread_time()

import argparse  # noqa: E402 - the clock must start first
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import typing  # noqa: E402

import repro  # noqa: E402
from repro.chains.base import BaseNode  # noqa: E402
from repro.coconut.provisioner import Provisioner, Rig  # noqa: E402
from repro.coconut.runner import BenchmarkRunner  # noqa: E402
from repro.consensus.base import EngineContext  # noqa: E402
from repro.crypto.hashing import hash_bytes, hash_object, leaf_hash  # noqa: E402
from repro.net.network import Network  # noqa: E402
from repro.sim.kernel import Simulator, TimerHandle  # noqa: E402
from repro.storage.chain import Chain  # noqa: E402
from repro.storage.transaction import reset_id_counters  # noqa: E402

from benchmarks.e2e import check, layers  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Unit  # noqa: E402

#: Boundary counts read from the profile: metric -> the public functions
#: whose call counts it sums. Keys come from the live code objects, so
#: moving a function inside its file does not break the lookup.
COUNTED_CALLS = {
    "sim.events_scheduled": (Simulator.schedule, Simulator.schedule_cancellable),
    "sim.timers_cancelled": (TimerHandle.cancel,),
    "net.sends": (Network.send,),
    "net.broadcasts": (Network.broadcast,),
    "crypto.hash_calls": (hash_bytes, hash_object, leaf_hash),
    "storage.appends": (Chain.append,),
    "chains.node_messages": (BaseNode.on_message,),
    "consensus.decisions": (EngineContext.decide,),
}


class TimedProvisioner(Provisioner):
    """A provisioner that notes the thread CPU time when the process's
    first rig is ready."""

    def __init__(self) -> None:
        self.first_ready: typing.Optional[float] = None

    def provision(self, config, repetition: int) -> Rig:
        rig = super().provision(config, repetition)
        if self.first_ready is None:
            self.first_ready = time.thread_time()
        return rig


def _code_key(function: typing.Callable) -> typing.Tuple[str, int, str]:
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _outputs(result, runner: BenchmarkRunner) -> dict:
    """The unit's checked outputs: per-phase metrics, fault-window counts
    and, on checked units, the strict oracles' violation count."""
    phases = {}
    for name, phase in result.phases.items():
        metrics = phase.repetitions[0]
        out = {field: getattr(metrics, field) for field in check.PHASE_FIELDS}
        if metrics.resilience is not None:
            out["committed_in_window"] = metrics.resilience["committed_in_window"]
            out["lost_in_window"] = metrics.resilience["lost_in_window"]
        phases[name] = out
    outputs: dict = {"phases": phases}
    if runner.last_invariants is not None:
        outputs["violations"] = runner.last_invariants.total_violations
    return outputs


def _counters(runner: BenchmarkRunner) -> dict:
    """Counters read from public state after the unit."""
    rig = runner.last_rig
    assert rig is not None
    tracer = runner.tracer
    return {
        "late_receipts": sum(client.ignored_late_receipts for client in rig.clients),
        "messages_sent": rig.system.network.messages_sent,
        "messages_dropped": rig.system.network.messages_dropped,
        "invariant_checks": (
            sum(runner.last_invariants.checks.values())
            if runner.last_invariants is not None else 0
        ),
        "trace_records": len(tracer.spans) + len(tracer.events) if tracer is not None else 0,
        "trace_dropped": tracer.dropped_records if tracer is not None else 0,
    }


def _run_unit(
    unit: Unit,
    seed: typing.Optional[int],
    provisioner: TimedProvisioner,
    profiler: typing.Optional[cProfile.Profile],
    sampler: probe.Probe,
) -> dict:
    config = unit.build(seed)
    runner = BenchmarkRunner(provisioner=provisioner, **unit.runner_kwargs())
    entry: dict = {
        "unit": unit.name,
        "system": config.system,
        "seed": config.seed,
        "cpu_s": 0.0,
        "ref_cpu_s": 0.0,
        "error": None,
    }
    # Start from a clean heap, so that collecting the previous unit's
    # deployment neither lands inside this unit's timing nor decides
    # the process's peak RSS.
    gc.collect()
    reset_id_counters()
    start = time.thread_time()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            result = runner.run(config)
        finally:
            if profiler is not None:
                profiler.disable()
    except Exception:  # a failed unit is reported and counted, not fatal
        end = time.thread_time()
        entry["cpu_s"] = end - start
        entry["ref_cpu_s"] = sampler.rescale(start, end)
        entry["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
        traceback.print_exc(file=sys.stderr)
        return entry
    end = time.thread_time()
    entry["cpu_s"] = end - start
    entry["ref_cpu_s"] = sampler.rescale(start, end)
    entry["outputs"] = _outputs(result, runner)
    entry["counters"] = _counters(runner)
    return entry


def measure(
    workload: str,
    seed: typing.Optional[int] = None,
    profile: bool = False,
    t0: float = _T0,
    sampler: probe.Probe = PROBE,
) -> dict:
    """Run every unit of ``workload`` once; returns the JSON document.
    ``sampler`` is the process's running probe; it is stopped before
    profiled units, whose profile it would otherwise join."""
    provisioner = TimedProvisioner()
    profiler = None
    if profile:
        sampler.stop()
        profiler = cProfile.Profile()
    units = [
        _run_unit(unit, seed, provisioner, profiler, sampler) for unit in WORKLOADS[workload]
    ]
    sampler.stop()
    ready = provisioner.first_ready
    document = {
        "workload": workload,
        "profiled": profile,
        "probes": len(sampler.samples),
        "setup_s": sampler.rescale(t0, ready) if ready is not None else None,
        "cpu_s": sum(unit["cpu_s"] for unit in units),
        "ref_cpu_s": sum(unit["ref_cpu_s"] for unit in units),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units": units,
    }
    if profiler is not None:
        profiler.create_stats()
        stats = profiler.stats  # type: ignore[attr-defined]
        document["profile"] = layers.summarize(
            stats,
            package_dir=os.path.dirname(repro.__file__),
            counted={
                name: [_code_key(function) for function in functions]
                for name, functions in COUNTED_CALLS.items()
            },
        )
    return document


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="replace every unit's default seed")
    parser.add_argument("--profile", action="store_true",
                        help="run the units under cProfile")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.profile)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
