"""Hot-path benchmarks: kernel dispatch, network send, hashing, end-to-end.

Each micro target times the *current* implementation against a verbatim
copy of the pre-optimization code (``_Legacy*`` below), so the speedups
written into the baseline are measured live on the same machine rather
than quoted from a one-off run. The end-to-end targets time short full
benchmark-unit runs; their pre-optimization reference timings are
recorded in the baseline notes (they cannot be re-measured live, since
the legacy runner no longer exists as a whole).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py              # print
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --update BENCH_hotpaths.json
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --check BENCH_hotpaths.json \
        --threshold 3.0 --quick

``--check`` exits non-zero when any target is slower than ``threshold``
times the committed best — a wide net that only catches optimizations
being silently reverted, not machine-to-machine noise.
"""

from __future__ import annotations

import argparse
import dataclasses
import heapq
import sys
import typing

from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.crypto.hashing import hash_bytes, hash_object
from repro.crypto.merkle import MerkleTree
from repro.net.host import Host
from repro.net.latency import ConstantLatency, NetemLatency
from repro.net.network import Endpoint, Message, Network
from repro.perf import TimingResult, check_baseline, load_baseline, time_callable, write_baseline
from repro.sim.kernel import Simulator
from repro.storage.transaction import Payload, Transaction, reset_id_counters

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
}


# ----------------------------------------------------------------------
# Legacy reference implementations (verbatim pre-optimization code)


class _LegacySimulator(Simulator):
    """The pre-optimization kernel: 3-tuple entries, per-iteration flag checks."""

    def schedule(self, delay, callback, *args):  # noqa: D102 - reference copy
        if args:
            raise TypeError("legacy schedule takes a zero-argument callback")
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, callback))

    def run(self, until=None):  # noqa: D102 - reference copy
        if self._running:
            raise RuntimeError("run() is not reentrant")
        self._running = True
        try:
            while self._queue:
                at, __, callback = self._queue[0]
                if until is not None and at > until:
                    break
                heapq.heappop(self._queue)
                self._now = at
                if self.tracer.enabled:
                    self._traced_dispatch(callback)
                else:
                    callback()
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now


class _LegacyNetwork(Network):
    """The pre-optimization send path: dict churn, closures, no route cache."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._fifo_clock: typing.Dict[typing.Tuple[str, str], float] = {}

    def send(self, message):  # noqa: D102 - reference copy
        if message.dst not in self._endpoints:
            raise KeyError(f"unknown destination {message.dst!r}")
        self.messages_sent += 1
        tracer = self.sim.tracer
        if not (self.endpoint_is_up(message.src) and self.endpoint_is_up(message.dst)):
            self._drop(message)
            return
        if not self.partitions.allows(message.src, message.dst, self._rng):
            self._drop(message)
            return
        link = self.link_between(message.src, message.dst)
        delay = link.delay(message.size_bytes, self._rng)
        if self.extra_latency:
            delay += self.extra_latency
        pair = (message.src, message.dst)
        arrival = self.sim.now + delay
        arrival = max(arrival, self._fifo_clock.get(pair, 0.0))
        self._fifo_clock[pair] = arrival
        if tracer.enabled and tracer.wants("net"):
            latency = arrival - self.sim.now
            tracer.event(
                "net.send", category="net", node=message.src,
                dst=message.dst, kind=message.kind, size=message.size_bytes,
            )
            tracer.event(
                "net.deliver", category="net", node=message.dst, at=arrival,
                src=message.src, kind=message.kind, latency=round(latency, 9),
            )
            tracer.metrics.counter("net.sent", system=self.name).inc()
            tracer.metrics.counter("net.bytes", system=self.name).inc(message.size_bytes)
            tracer.metrics.histogram("net.latency", system=self.name).record(latency)
        endpoint = self._endpoints[message.dst]
        self.sim.schedule(arrival - self.sim.now, lambda: self._legacy_deliver(endpoint, message))

    def _legacy_deliver(self, endpoint, message):
        if not self.endpoint_is_up(message.dst):
            self._drop(message)
            return
        endpoint.on_message(message)


@dataclasses.dataclass(frozen=True)
class _LegacyMessage:
    """The pre-optimization envelope: a frozen dataclass, paying one
    ``object.__setattr__`` call per field at construction."""

    src: str
    dst: str
    kind: str
    payload: object = None
    size_bytes: int = 256

    def __repr__(self) -> str:
        return f"Message({self.kind} {self.src}->{self.dst})"


class _LegacyBroadcastNetwork(Network):
    """The pre-optimization fan-out: two list passes over the target set,
    then one frozen-dataclass envelope per destination through ``send``."""

    def broadcast(self, src, dsts, kind, payload=None, size_bytes=256):  # noqa: D102 - reference copy
        targets = [dst for dst in dsts if dst != src]
        unknown = [dst for dst in targets if dst not in self._endpoints]
        if unknown:
            raise KeyError(
                f"unknown destination(s) {unknown!r} in broadcast from {src!r}"
            )
        for dst in targets:
            self.send(_LegacyMessage(src, dst, kind, payload, size_bytes))
        return len(targets)


def _legacy_merkle_root(leaves) -> str:
    """Pre-optimization tree build: every leaf re-encoded and re-hashed."""
    leaf_hashes = [hash_object(leaf) for leaf in leaves]
    if not leaf_hashes:
        return hash_bytes(b"empty-merkle-tree")
    return MerkleTree._build(leaf_hashes)[-1][0]


# ----------------------------------------------------------------------
# Micro targets


def _noop() -> None:
    pass


def bench_dispatch(events: int, repeats: int) -> typing.Tuple[TimingResult, TimingResult]:
    """Schedule-and-drain a queue of no-op callbacks through both kernels."""

    def run_kernel(cls):
        sim = cls(seed=1)
        for i in range(events):
            sim.schedule(i * 1e-6, _noop)
        sim.run()

    legacy = time_callable(
        lambda: run_kernel(_LegacySimulator), "dispatch_legacy", repeats=repeats
    )
    current = time_callable(
        lambda: run_kernel(Simulator), "dispatch", repeats=repeats
    )
    return legacy, current


class _Sink(Endpoint):
    def on_message(self, message: Message) -> None:
        pass


def bench_net_send(messages: int, repeats: int) -> typing.Tuple[TimingResult, TimingResult]:
    """Point-to-point sends over a constant-latency (jitter-free) link."""

    def run_network(cls):
        sim = Simulator(seed=1)
        net = cls(sim, default_latency=ConstantLatency(0.0004))
        host = Host("h0")
        for eid in ("a", "b"):
            net.attach(_Sink(eid), host)
        send = net.send
        for __ in range(messages):
            send(Message("a", "b", "ping", size_bytes=256))
        sim.run()

    legacy = time_callable(
        lambda: run_network(_LegacyNetwork), "net_send_legacy", repeats=repeats
    )
    current = time_callable(
        lambda: run_network(Network), "net_send", repeats=repeats
    )
    return legacy, current


def bench_broadcast(
    group: int, broadcasts: int, repeats: int
) -> typing.Tuple[TimingResult, TimingResult]:
    """Whole-group fan-outs from one node of a ``group``-node deployment.

    The legacy path allocates one frozen-dataclass envelope per
    destination and re-runs ``send``'s route lookups; the current path
    shares a single wire record across the fan-out and inlines the
    per-destination work over the cached route table.
    """
    ids = [f"n{i}" for i in range(group)]

    def run_network(cls):
        sim = Simulator(seed=1)
        net = cls(sim, default_latency=ConstantLatency(0.0004))
        host = Host("h0")
        for eid in ids:
            net.attach(_Sink(eid), host)
        broadcast = net.broadcast
        for __ in range(broadcasts):
            broadcast("n0", ids, "ping", size_bytes=256)
        sim.run()

    legacy = time_callable(
        lambda: run_network(_LegacyBroadcastNetwork),
        f"broadcast_n{group}_legacy", repeats=repeats,
    )
    current = time_callable(
        lambda: run_network(Network), f"broadcast_n{group}", repeats=repeats
    )
    return legacy, current


def bench_timer_churn(churns: int, repeats: int) -> typing.Tuple[TimingResult, TimingResult]:
    """Arm-and-re-arm a progress timer ``churns`` times, then drain.

    The legacy pattern leaves every superseded timer in the queue as a
    live generation-checking closure that must be dispatched; the
    current pattern cancels the superseded handle in O(1) and the
    drain loop discards its tombstone without a callback dispatch.
    """

    def run_legacy():
        sim = _LegacySimulator(seed=1)
        current_gen = [0]

        def fire(gen):
            if gen != current_gen[0]:
                return

        for i in range(churns):
            current_gen[0] += 1
            gen = current_gen[0]
            sim.schedule(1.0 + i * 1e-6, lambda gen=gen: fire(gen))
        sim.run()

    def run_current():
        sim = Simulator(seed=1)

        def fire():
            pass

        handle = None
        for i in range(churns):
            if handle is not None:
                handle.cancel()
            handle = sim.schedule_cancellable(1.0 + i * 1e-6, fire)
        sim.run()

    legacy = time_callable(run_legacy, "timer_churn_legacy", repeats=repeats)
    current = time_callable(run_current, "timer_churn", repeats=repeats)
    return legacy, current


def bench_hashing(
    transactions: int, rebuilds: int, repeats: int
) -> typing.Tuple[TimingResult, TimingResult]:
    """Merkle roots over one transaction list, rebuilt per replica.

    ``rebuilds`` models the fan-out: every replica's append verification
    and the checker's chain pass hash the same Transaction objects. The
    legacy path re-encodes each leaf per build; the current path hits
    the memoized ``content_hash`` after the first.
    """
    reset_id_counters()
    txs = [
        Transaction.wrap(
            [Payload.create("client-0", "KeyValue", "Set", {"key": f"k{i}", "value": f"v{i}"})],
            submitter="client-0",
        )
        for i in range(transactions)
    ]

    def run_legacy():
        for __ in range(rebuilds):
            _legacy_merkle_root(txs)

    def run_current():
        for __ in range(rebuilds):
            MerkleTree(txs).root  # noqa: B018 - the build is the work

    legacy = time_callable(run_legacy, "hashing_legacy", repeats=repeats)
    current = time_callable(run_current, "hashing", repeats=repeats)
    return legacy, current


# ----------------------------------------------------------------------
# End-to-end targets


def bench_e2e(name: str, repeats: int) -> TimingResult:
    """One full benchmark-unit run through the current pipeline."""
    config = BenchmarkConfig(**E2E_CONFIGS[name])

    def run_unit():
        reset_id_counters()
        BenchmarkRunner(keep_last_rig=False).run(config)

    return time_callable(run_unit, name, repeats=repeats, warmup=1)


# ----------------------------------------------------------------------
# Driver


def run_all(quick: bool = False) -> typing.Tuple[typing.List[TimingResult], dict]:
    """Run every target; returns (results, notes) for the baseline.

    ``quick`` cuts repeats, not workload sizes — quick timings stay
    comparable with a full-run baseline, so CI's ``--check --quick``
    still measures the same work per call.
    """
    repeats = 2 if quick else 5
    pairs = {
        "dispatch": bench_dispatch(20_000, repeats),
        "net_send": bench_net_send(10_000, repeats),
        "broadcast_n4": bench_broadcast(4, 2_000, repeats),
        "broadcast_n16": bench_broadcast(16, 500, repeats),
        "broadcast_n32": bench_broadcast(32, 250, repeats),
        "timer_churn": bench_timer_churn(20_000, repeats),
        "hashing": bench_hashing(100, 20, repeats),
    }
    results: typing.List[TimingResult] = []
    speedups = {}
    for name, (legacy, current) in pairs.items():
        results.extend([legacy, current])
        speedups[name] = round(legacy.best / current.best, 3)
    e2e_repeats = 1 if quick else 3
    for name in E2E_CONFIGS:
        results.append(bench_e2e(name, e2e_repeats))
    notes = {
        "speedups_vs_legacy": speedups,
        "pre_pr_e2e_seconds": PRE_PR_E2E_SECONDS,
        "quick": quick,
    }
    return results, notes


def _print_report(results: typing.Sequence[TimingResult], notes: dict) -> None:
    by_name = {result.name: result for result in results}
    print(f"{'target':<22} {'best (s)':>12} {'mean (s)':>12}")
    for result in results:
        print(f"{result.name:<22} {result.best:>12.6f} {result.mean:>12.6f}")
    print()
    for name, speedup in notes["speedups_vs_legacy"].items():
        print(f"{name}: {speedup:.2f}x vs legacy")
    for name, reference in notes["pre_pr_e2e_seconds"].items():
        if name in by_name:
            print(f"{name}: {by_name[name].best:.3f}s (pre-optimization reference {reference:.3f}s)")


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

    results, notes = run_all(quick=args.quick)
    _print_report(results, notes)

    if args.update:
        write_baseline(args.update, results, notes=notes)
        print(f"\nwrote baseline {args.update}")
    if args.check:
        problems = check_baseline(load_baseline(args.check), results, threshold=args.threshold)
        if problems:
            print(f"\nFAIL: regressions against {args.check}:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"\nOK: all targets within {args.threshold:g}x of {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
