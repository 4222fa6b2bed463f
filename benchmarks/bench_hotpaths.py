"""Hot-path benchmarks: kernel, CPU jobs, network, hashing, payloads, end-to-end.

The micro targets time the current kernel, network, hashing and
per-payload client code;
the end-to-end targets time short full benchmark-unit runs. The
speedups each optimization pass measured against the code it replaced
are frozen below (``SPEEDUPS_VS_LEGACY``, ``PRE_PR_E2E_SECONDS``) and
written into the baseline notes, next to one live speedup: the direct
transaction encoder over the generic one (``tx_digest_vs_hash_object``).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py              # print
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --update BENCH_hotpaths.json
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --check BENCH_hotpaths.json \
        --threshold 3.0 --quick

``--check`` exits non-zero when any target is slower than ``threshold``
times the committed best — a wide net that only catches optimizations
being silently reverted, not machine-to-machine noise — or when the
SHA-256 calls, queue entries, ``schedule`` calls, messages sent, IEL
executions or client-path calls of any end-to-end unit differ from its
committed count.
Those counts come from one extra untimed run per unit under stdlib
``cProfile``, so they are exact and do not depend on the machine: a
changed queue-entry count is a changed dispatch schedule.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import sys
import types
import typing

import repro.coconut
import repro.storage.transaction
from repro.chains.base import BaseNode
from repro.coconut.bal import BitSharesDriver, SawtoothDriver, SingleTransactionDriver
from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.crypto.hashing import hash_bytes, hash_object, leaf_hash
from repro.crypto.merkle import MerkleTree
from repro.faults.plan import FaultPlan
from repro.iel.base import InterfaceExecutionLayer
from repro.net.host import Host
from repro.net.latency import ConstantLatency, NetemLatency
from repro.net.network import Endpoint, Message, Network
from repro.perf import TimingResult, check_baseline, load_baseline, time_callable, write_baseline
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource
from repro.storage.transaction import Payload, Transaction, reset_id_counters
from repro.trace.tracer import Tracer

#: Pre-optimization end-to-end timings (seconds, min-of-3 after warmup)
#: measured on the machine that produced the committed baseline, with the
#: exact E2E_CONFIGS below, immediately before the hot-path pass landed.
PRE_PR_E2E_SECONDS = {
    "e2e_fabric": 0.815,
    "e2e_quorum": 0.456,
    # Captured immediately before the broadcast fan-out / cancellable
    # timer pass: a 12-validator Sawtooth PBFT unit, where every batch
    # gossips to 11 peers and every consensus message fans out n-wide.
    "e2e_sawtooth_n12": 2.849,
    # Captured immediately before replicated execution ran once per
    # deployment: all 32 validators executed every decided block.
    "e2e_quorum_n32": 4.027,
}

#: Micro speedups over the pre-optimization code, measured live (min-of-5,
#: same process, x86_64 Linux, Python 3.11.7) against verbatim copies of
#: that code when the committed baseline was last regenerated with them:
#: the kernel and network send path before the hot-path pass, the
#: frozen-dataclass per-destination broadcast and the generation-checked
#: no-op timers before the fan-out and timer pass, and per-build leaf
#: re-hashing for Merkle roots.
SPEEDUPS_VS_LEGACY = {
    "dispatch": 0.94,
    "net_send": 1.473,
    "broadcast_n4": 1.703,
    "broadcast_n16": 2.294,
    "broadcast_n32": 1.856,
    "timer_churn": 0.862,
    "hashing": 14.711,
}

E2E_CONFIGS = {
    "e2e_fabric": dict(system="fabric", iel="KeyValue", rate_limit=50,
                       scale=0.05, repetitions=1, seed=3),
    "e2e_quorum": dict(system="quorum", iel="KeyValue", rate_limit=50,
                       scale=0.05, repetitions=1, seed=3),
    "e2e_sawtooth_n12": dict(system="sawtooth", iel="KeyValue", rate_limit=50,
                             scale=0.05, repetitions=1, seed=3, node_count=12),
    # Fig. 5's n=32 point over the netem WAN: IBFT fans every round out
    # to 31 peers and 32 validators apply every decided block.
    "e2e_quorum_n32": dict(system="quorum", iel="DoNothing", rate_limit=400,
                           params={"istanbul.blockperiod": 5.0}, node_count=32,
                           latency=NetemLatency(mean=0.012, jitter=0.002),
                           scale=0.04, repetitions=1, seed=58),
    # A checked run, as ``coconut run --faults ... --check-level strict
    # --trace`` makes it: the Raft leader crashes a quarter into each
    # phase's send window (30 s at this scale) and restarts halfway.
    "e2e_fabric_checked": dict(system="fabric", iel="KeyValue", rate_limit=10,
                               scale=0.1, repetitions=1, seed=3,
                               fault_plan=FaultPlan().kill_leader(7.5).restart("leader", 15.0)),
}

#: Extra :class:`BenchmarkRunner` arguments of an end-to-end target, built
#: fresh per run (a tracer collects one run only).
E2E_RUNNER_KWARGS: typing.Dict[str, typing.Callable[[], dict]] = {
    "e2e_fabric_checked": lambda: {"check": True, "check_level": "strict", "tracer": Tracer()},
}


def _runner(name: str, **kwargs: object) -> BenchmarkRunner:
    """A runner for one end-to-end target, with its extra arguments."""
    extra = E2E_RUNNER_KWARGS.get(name)
    return BenchmarkRunner(**kwargs, **(extra() if extra else {}))


# ----------------------------------------------------------------------
# Micro targets


def _noop() -> None:
    pass


def bench_dispatch(events: int, repeats: int) -> TimingResult:
    """Schedule-and-drain a queue of no-op callbacks."""

    def run_kernel():
        sim = Simulator(seed=1)
        for i in range(events):
            sim.schedule(i * 1e-6, _noop)
        sim.run()

    return time_callable(run_kernel, "dispatch", repeats=repeats)


class _Sink(Endpoint):
    def on_message(self, message: Message) -> None:
        pass


def bench_net_send(messages: int, repeats: int) -> TimingResult:
    """Point-to-point sends over a constant-latency (jitter-free) link."""

    def run_network():
        sim = Simulator(seed=1)
        net = Network(sim, default_latency=ConstantLatency(0.0004))
        host = Host("h0")
        for eid in ("a", "b"):
            net.attach(_Sink(eid), host)
        send = net.send
        for __ in range(messages):
            send(Message("a", "b", "ping", size_bytes=256))
        sim.run()

    return time_callable(run_network, "net_send", repeats=repeats)


def bench_broadcast(group: int, broadcasts: int, repeats: int, wan: bool = False) -> TimingResult:
    """Whole-group fan-outs from one node of a ``group``-node deployment,
    each sharing one wire record across its destinations.

    By default every node shares one host, so each route is a
    jitter-free loopback. With ``wan`` each node has its own host and
    every link samples the paper's netem WAN (normal, mu 12 ms, jitter
    2 ms): one ``gauss`` draw per destination (target ``..._wan``).
    """
    ids = [f"n{i}" for i in range(group)]

    def run_network():
        sim = Simulator(seed=1)
        if wan:
            net = Network(sim, default_latency=NetemLatency(0.012, 0.002))
            hosts = [Host(f"h{i}") for i in range(group)]
        else:
            net = Network(sim, default_latency=ConstantLatency(0.0004))
            hosts = [Host("h0")] * group
        for eid, host in zip(ids, hosts):
            net.attach(_Sink(eid), host)
        broadcast = net.broadcast
        for __ in range(broadcasts):
            broadcast("n0", ids, "ping", size_bytes=256)
        sim.run()

    name = f"broadcast_n{group}_wan" if wan else f"broadcast_n{group}"
    return time_callable(run_network, name, repeats=repeats)


def bench_timer_churn(churns: int, repeats: int) -> TimingResult:
    """Arm-and-re-arm a progress timer ``churns`` times, then drain.

    Each superseded handle is cancelled in O(1), and the drain loop
    discards its tombstone without a callback dispatch.
    """

    def run_churn():
        sim = Simulator(seed=1)

        def fire():
            pass

        handle = None
        for i in range(churns):
            if handle is not None:
                handle.cancel()
            handle = sim.schedule_cancellable(1.0 + i * 1e-6, fire)
        sim.run()

    return time_callable(run_churn, "timer_churn", repeats=repeats)


def bench_cpu_job(jobs: int, repeats: int) -> TimingResult:
    """One-shot CPU jobs on a 1-slot CPU: ``jobs`` arrivals 1 ms apart,
    each holding the CPU for 1.5 ms (so a queue builds) and then running
    a no-op continuation, the shape of per-transaction admission
    (``BaseNode.start_job``)."""

    def run() -> None:
        sim = Simulator(seed=1)
        node = types.SimpleNamespace(sim=sim, cpu=Resource(sim, capacity=1, name="cpu"))
        for i in range(jobs):
            sim.schedule(i * 1e-3, BaseNode.start_job, node, 1.5e-3, _noop)
        sim.run()

    return time_callable(run, "cpu_job", repeats=repeats)


def bench_hashing(transactions: int, rebuilds: int, repeats: int) -> TimingResult:
    """Merkle roots over one transaction list, rebuilt per replica.

    ``rebuilds`` models the fan-out: every replica's append verification
    and the checker's chain pass hash the same Transaction objects, and
    every build after the first hits the memoized ``content_hash``.
    """
    reset_id_counters()
    txs = [
        Transaction.wrap(
            [Payload.create("client-0", "KeyValue", "Set", {"key": f"k{i}", "value": f"v{i}"})],
            submitter="client-0",
        )
        for i in range(transactions)
    ]

    def run_builds():
        for __ in range(rebuilds):
            MerkleTree(txs).root  # noqa: B018 - the build is the work

    return time_callable(run_builds, "hashing", repeats=repeats)


def bench_tx_digest(
    singles: int, multis: int, repeats: int
) -> typing.Tuple[TimingResult, TimingResult]:
    """Digests of fresh transactions: ``singles`` 1-payload and
    ``multis`` 100-payload ones per round.

    Returns the timing of ``Transaction.content_hash`` (the direct
    encoder) and, as the reference, of the generic ``hash_object`` over
    transactions of the same shape. Every round digests transactions no
    earlier round touched, so the memoized digest never hides the work.
    """
    reset_id_counters()

    def fresh_round() -> typing.List[Transaction]:
        return [
            Transaction.wrap(
                [
                    Payload.create("client-0", "KeyValue", "Set",
                                   {"key": f"client-0:t0:k{i}", "value": f"value-{i}"})
                    for i in range(size)
                ],
                submitter="client-0",
            )
            for size in [1] * singles + [100] * multis
        ]

    warmup = 1
    direct_rounds = [fresh_round() for __ in range(warmup + repeats)]
    generic_rounds = [fresh_round() for __ in range(warmup + repeats)]

    def direct():
        for tx in direct_rounds.pop():
            tx.content_hash  # noqa: B018 - the digest is the work

    def generic():
        for tx in generic_rounds.pop():
            hash_object(tx)

    return (
        time_callable(direct, "tx_digest", repeats=repeats, warmup=warmup),
        time_callable(generic, "tx_digest_hash_object", repeats=repeats, warmup=warmup),
    )


def bench_payload_path(payloads: int, repeats: int) -> TimingResult:
    """The client's per-payload objects: ``Payload.create`` then the
    driver's ``wrap``, as a send builds them, for ``payloads`` payloads
    through each of the single-transaction driver, BitShares at 100
    operations per transaction and Sawtooth at 100 transactions per
    batch."""
    reset_id_counters()
    drivers = (
        SingleTransactionDriver("client-0"),
        BitSharesDriver("client-0", ops_per_transaction=100),
        SawtoothDriver("client-0", txs_per_batch=100),
    )
    args = {"key": "client-0:t0:k1", "value": "value-1"}

    def run_sends():
        for driver in drivers:
            group = driver.group_size
            for __ in range(payloads // group):
                driver.wrap([
                    Payload.create("client-0", "KeyValue", "Set", args) for __ in range(group)
                ])

    return time_callable(run_sends, "payload_path", repeats=repeats)


# ----------------------------------------------------------------------
# End-to-end targets


def bench_e2e(name: str, repeats: int) -> TimingResult:
    """One full benchmark-unit run through the current pipeline."""
    config = BenchmarkConfig(**E2E_CONFIGS[name])

    def run_unit():
        reset_id_counters()
        _runner(name, keep_last_rig=False).run(config)

    return time_callable(run_unit, name, repeats=repeats, warmup=1)


#: Exact counts taken per end-to-end unit, each the summed call counts
#: of some functions: ``hash_calls`` is ``benchmarks/e2e``'s
#: ``crypto.hash_calls`` (every SHA-256 call), ``schedule_calls`` counts
#: the Python-level ``schedule`` calls (one per queue entry but for the
#: hop of a ``resume_after`` wait, which its timer queues) and
#: ``iel_executions`` every payload execution, replicas' included.
COUNTED_CALLS = {
    "hash_calls": (hash_bytes, hash_object, leaf_hash),
    "schedule_calls": (Simulator.schedule, Simulator.schedule_cancellable),
    "iel_executions": (InterfaceExecutionLayer.execute,),
}


def queue_entries(sim: Simulator) -> int:
    """The entries ``sim`` has queued: every sequence number taken, less
    the hops reserved by ``resume_after`` waits whose timer is still
    armed (their timer queues them only when it fires)."""
    hop = sim._ready_append
    armed = sum(1 for entry in (*sim._queue, *sim._ready) if entry[2] is hop)
    return sim._sequence - armed


#: The per-payload client path: the COCONUT client, workload plan and
#: BAL, and the payload/transaction/batch classes. ``client_calls``
#: counts the Python calls of the functions defined in these files.
CLIENT_PATH_DIR = os.path.join(os.path.dirname(repro.coconut.__file__), "")
CLIENT_PATH_FILE = repro.storage.transaction.__file__

#: Frames ``client_calls`` leaves out. Python 3.12 inlines list, dict
#: and set comprehensions (PEP 709), so counting comprehension and
#: generator-expression frames would tie the count to the interpreter.
UNCOUNTED_FRAMES = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def client_calls(stats: dict) -> int:
    """The Python calls a profile made of functions on the client path
    (:data:`CLIENT_PATH_DIR`, :data:`CLIENT_PATH_FILE`), comprehensions
    and generator expressions aside."""
    return sum(
        entry[1]
        for (filename, __, function), entry in stats.items()
        if (filename.startswith(CLIENT_PATH_DIR) or filename == CLIENT_PATH_FILE)
        and function not in UNCOUNTED_FRAMES
    )


def exact_counts(name: str) -> typing.Dict[str, int]:
    """The exact counts of one untimed run of an end-to-end target's
    unit: the :data:`COUNTED_CALLS` and ``client_calls``, from
    ``cProfile`` call counts; ``messages_sent``, read from the network
    as ``benchmarks/e2e`` reads it; and ``events_scheduled``, every
    queue entry the run made, read from the kept rig's simulator (every
    target runs one repetition)."""
    config = BenchmarkConfig(**E2E_CONFIGS[name])
    reset_id_counters()
    runner = _runner(name)
    profiler = cProfile.Profile()
    profiler.runcall(runner.run, config)
    profiler.create_stats()
    rig = runner.last_rig
    assert rig is not None and config.repetitions == 1
    counts = {
        f"{name}.messages_sent": rig.system.network.messages_sent,
        f"{name}.events_scheduled": queue_entries(rig.sim),
    }
    for count, functions in COUNTED_CALLS.items():
        keys = {
            (f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name)
            for f in functions
        }
        counts[f"{name}.{count}"] = sum(
            entry[1] for func, entry in profiler.stats.items() if func in keys
        )
    counts[f"{name}.client_calls"] = client_calls(profiler.stats)
    return counts


# ----------------------------------------------------------------------
# Driver


def run_all(
    quick: bool = False,
) -> typing.Tuple[typing.List[TimingResult], dict, typing.Dict[str, int]]:
    """Run every target; returns (results, notes, counts) for the baseline.

    ``quick`` cuts repeats, not workload sizes — quick timings stay
    comparable with a full-run baseline, so CI's ``--check --quick``
    still measures the same work per call.
    """
    repeats = 2 if quick else 5
    tx_digest, tx_digest_reference = bench_tx_digest(200, 4, repeats)
    results = [
        bench_dispatch(20_000, repeats),
        bench_net_send(10_000, repeats),
        bench_broadcast(4, 2_000, repeats),
        bench_broadcast(16, 500, repeats),
        bench_broadcast(32, 250, repeats),
        bench_broadcast(32, 250, repeats, wan=True),
        bench_timer_churn(20_000, repeats),
        bench_cpu_job(10_000, repeats),
        bench_hashing(100, 20, repeats),
        tx_digest,
        bench_payload_path(1_000, repeats),
    ]
    e2e_repeats = 1 if quick else 3
    for name in E2E_CONFIGS:
        results.append(bench_e2e(name, e2e_repeats))
    counts = {}
    for name in E2E_CONFIGS:
        counts.update(exact_counts(name))
    notes = {
        "speedups_vs_legacy": SPEEDUPS_VS_LEGACY,
        "tx_digest_vs_hash_object": round(tx_digest_reference.best / tx_digest.best, 3),
        "pre_pr_e2e_seconds": PRE_PR_E2E_SECONDS,
        "quick": quick,
    }
    return results, notes, counts


def _print_report(
    results: typing.Sequence[TimingResult], notes: dict, counts: typing.Mapping[str, int]
) -> None:
    by_name = {result.name: result for result in results}
    print(f"{'target':<22} {'best (s)':>12} {'mean (s)':>12}")
    for result in results:
        print(f"{result.name:<22} {result.best:>12.6f} {result.mean:>12.6f}")
    print()
    for name, speedup in notes["speedups_vs_legacy"].items():
        print(f"{name}: {speedup:.2f}x vs legacy (recorded)")
    print(f"tx_digest: {notes['tx_digest_vs_hash_object']:.2f}x vs generic hash_object (live)")
    for name, reference in notes["pre_pr_e2e_seconds"].items():
        if name in by_name:
            print(f"{name}: {by_name[name].best:.3f}s (pre-optimization reference {reference:.3f}s)")
    for name, count in counts.items():
        print(f"{name}: {count}")


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
        help="smaller workloads and fewer repeats (CI smoke)",
    )
    args = parser.parse_args(argv)

    results, notes, counts = run_all(quick=args.quick)
    _print_report(results, notes, counts)

    if args.update:
        write_baseline(args.update, results, notes=notes, counts=counts)
        print(f"\nwrote baseline {args.update}")
    if args.check:
        problems = check_baseline(
            load_baseline(args.check), results, threshold=args.threshold, counts=counts
        )
        if problems:
            print(f"\nFAIL: regressions against {args.check}:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"\nOK: all targets within {args.threshold:g}x of {args.check}, counts equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
