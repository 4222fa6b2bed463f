"""How fast the host runs Python, sampled while a child runs.

A shared host runs other guests beside the benchmark. Thread CPU time
leaves out the time the core was given to someone else, but not a core
that runs slower, and on a 2-vCPU cloud guest that happens for a second
as often as for minutes, by 10 % to 2x. So while a child runs, a
:class:`Probe` runs a small fixed loop every :data:`INTERVAL_S` of the
process's CPU time and keeps the loop's CPU time. A timed window is
reported net of the probes inside it and rescaled by them to a host
that runs the loop in :data:`NOMINAL_S`:
``(seconds - probes) * NOMINAL_S / mean(probes)``, leaving out of the
mean the rare probe slower than :data:`OUTLIER` times the median.
The probes sample the same moments as the work they rescale, so a slow
spell slows both and cancels out.

The loop uses the standard library only, so no change to ``repro`` can
move it. It does the kind of work the simulator does: a heap of events,
dict updates, small objects and a SHA-256 every eighth event. It runs
with the cyclic GC off, so it never collects the program's garbage.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import signal
import statistics
import time
import typing

#: The loop's CPU time on the host the benchmark's bounds were set on, a
#: 2-vCPU Intel Xeon KVM guest with Python 3.11, when the host is quiet.
NOMINAL_S = 0.00025

#: Process CPU time between two probes; each costs about 1.5 % of it.
INTERVAL_S = 0.02

#: Probes slower than this many times their window's median are left out.
OUTLIER = 3.0

_EVENTS = 250


class _Event:
    __slots__ = ("seq", "key")

    def __init__(self, seq: int, key: int) -> None:
        self.seq = seq
        self.key = key


def _loop() -> float:
    """One run of the loop; its CPU time."""
    start = time.thread_time()
    heap: list = []
    store: dict = {}
    for i in range(_EVENTS):
        heapq.heappush(heap, ((i * 7919) % 1009, i, _Event(i, i % 4093)))
        if len(heap) > 64:
            __, seq, event = heapq.heappop(heap)
            store[event.key] = store.get(event.key, 0) + 1
            if seq & 7 == 0:
                hashlib.sha256(repr((seq, event.key)).encode()).digest()
    return time.thread_time() - start


class Probe:
    """Runs the loop every :data:`INTERVAL_S` of process CPU time between
    :meth:`start` and :meth:`stop`, from a ``SIGPROF`` handler.

    Times are the main thread's CPU time (``time.thread_time``): the
    simulator runs on one thread, and unlike the process clock it stays
    exact to the microsecond while an interval timer is armed."""

    def __init__(self) -> None:
        #: (thread CPU time at the start of a probe, its CPU time).
        self.samples: typing.List[typing.Tuple[float, float]] = []

    def _sample(self, signum: int, frame: object) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append((time.thread_time(), _loop()))
        finally:
            if enabled:
                gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def rescale(self, start: float, end: float) -> float:
        """The thread CPU time from ``start`` to ``end``, net of the probes
        inside it, at the nominal host's speed. A window that holds no
        probe is returned as measured."""
        inside = [seconds for at, seconds in self.samples if start <= at < end]
        net = end - start - sum(inside)
        if not inside:
            return net
        # A probe now and then takes 100x its median, when something the
        # kernel does lands inside it; such a probe says nothing about
        # the host's speed.
        typical = statistics.median(inside)
        speed = statistics.mean(s for s in inside if s <= OUTLIER * typical)
        return net * NOMINAL_S / speed
