"""The simulation event loop.

:class:`Simulator` owns simulated time and a two-lane queue of scheduled
callbacks: a FIFO ready lane for the current instant and a heap for later
times. Everything else in the package — stores, resources, network
links, every node's loops — reduces to ``schedule(delay, fn, *args)``
calls against one Simulator instance.
"""

from __future__ import annotations

import collections
import heapq
import math
import typing

from repro.invariants.checker import NOOP_CHECKER
from repro.sim.rng import RngRegistry
from repro.trace.tracer import NOOP_TRACER

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.invariants.checker import InvariantChecker
    from repro.trace.tracer import Tracer

_heappush = heapq.heappush


class SimulationError(Exception):
    """Misuse of the simulation kernel or its primitives."""


class TimerHandle:
    """A cancellable timer returned by :meth:`Simulator.schedule_cancellable`.

    Cancellation is O(1): the queue entry is tombstoned in place (its
    callback slot set to ``None``) and the dispatch loop pops-and-skips
    dead entries instead of dispatching a fire-and-check no-op. The entry
    keeps its ``(time, sequence)`` place in whichever lane holds it (the
    heap, or the ready lane once its instant is current), so sequence
    numbering, RNG draws and the order of live events are untouched — a
    run with cancellations gives the same results as one where the stale
    timers fired as no-ops. Traced runs count each skipped pop in
    ``sim.timers_cancelled`` rather than ``sim.dispatches``.

    A pending handle and its entry form a cycle (handle -> entry ->
    bound ``_run`` -> handle). Firing drops the handle's entry reference
    and cancelling drops the entry's ``_run``, so neither a fired nor a
    cancelled timer leaves cyclic garbage behind (a run must create
    none; see :class:`~repro.coconut.runner.BenchmarkRunner`).
    """

    __slots__ = ("_entry", "_callback")

    def __init__(self, callback: typing.Callable[..., None]) -> None:
        self._callback = callback
        #: The queue entry while the timer is armed; ``None`` once fired.
        self._entry: typing.Optional[list] = None

    @property
    def active(self) -> bool:
        """Whether the timer is still pending (not fired, not cancelled)."""
        entry = self._entry
        return entry is not None and entry[2] is not None

    def cancel(self) -> bool:
        """Tombstone the timer. Returns ``False`` if it already fired or
        was already cancelled (both are safe no-ops)."""
        entry = self._entry
        if entry is None or entry[2] is None:
            return False
        entry[2] = None
        entry[3] = ()  # drop callback/argument refs promptly
        return True

    def _run(self, *args: object) -> None:
        self._entry = None
        self._callback(*args)


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a float in seconds, starting at 0, read as ``sim.now``: a
    plain attribute that only :meth:`run` writes. Callbacks run in
    ``(time, sequence)`` order, where the sequence number counts queue
    entries (one per :meth:`schedule` call, and one more for the hop of
    each :meth:`resume_after` wait): callbacks scheduled for the same
    instant run in schedule order (FIFO), which keeps runs fully
    deterministic for a fixed seed.

    The queue has two lanes. Entries due at the current instant go on a
    FIFO ready lane (a deque: O(1) in and out); later ones go on a heap.
    Every heap entry is due strictly after ``now``. When the ready lane
    runs dry, the clock advances to the heap top and every heap entry due
    at that instant moves, in heap order, to the ready lane, ahead of
    anything their callbacks schedule for the same instant. Those heap
    entries were scheduled while the clock was earlier, so their sequence
    numbers are below every such newcomer's, and the total dispatch order
    is exactly that of one heap ordered by ``(time, sequence)``.

    Every simulator carries a tracer (:data:`NOOP_TRACER` unless
    :meth:`set_tracer` installs a live one); instrumented components read
    it via ``sim.tracer`` so a disabled trace layer costs one attribute
    check per hook.
    """

    def __init__(self, seed: int = 0) -> None:
        #: Current simulated time in seconds. A plain attribute that
        #: only :meth:`run` writes: every hook reads the clock, and an
        #: attribute read costs about a fifth of a property call.
        self.now = 0.0
        #: Entries due after ``now``, a heap ordered by (time, sequence).
        self._queue: list = []
        #: Entries due at ``now``, in sequence order.
        self._ready: collections.deque = collections.deque()
        #: The ready lane's ``append``: the callback of every
        #: :meth:`resume_after` timer.
        self._ready_append = self._ready.append
        #: Queue entries made so far, a wait's reserved hop included.
        self._sequence = 0
        self._running = False
        self.rng = RngRegistry(seed)
        self.tracer = NOOP_TRACER
        self.checker = NOOP_CHECKER

    def set_tracer(self, tracer: "Tracer") -> None:
        """Install a tracer and bind its clock to this simulator."""
        self.tracer = tracer
        tracer.bind_clock(lambda: self.now)

    def set_checker(self, checker: "InvariantChecker") -> None:
        """Install an invariant checker observing this simulator's run."""
        self.checker = checker

    def schedule(self, delay: float, callback: typing.Callable[..., None], *args: object) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds.

        Extra positional arguments ride on the queue entry, so callers
        schedule a bound method plus its operands (``schedule(0.0,
        event.succeed, value)``) instead of allocating a closure per
        event. Every call takes the next sequence number. An entry due at
        the current instant — ``delay`` 0, or a positive delay too small
        to move ``now`` — goes on the ready lane; any other goes on the
        heap as a 4-slot list ``[time, sequence, callback, args]`` (a
        list so the timers of :meth:`schedule_cancellable` can be
        tombstoned in place). Heap order only ever compares the
        ``(time, sequence)`` prefix, and sequence is unique.
        """
        if not delay >= 0:  # also refuses NaN, which compares false
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._sequence = sequence = self._sequence + 1
        now = self.now
        time = now + delay
        if time == now:
            self._ready.append((time, sequence, callback, args))
        else:
            _heappush(self._queue, [time, sequence, callback, args])

    def schedule_cancellable(
        self, delay: float, callback: typing.Callable[..., None], *args: object
    ) -> TimerHandle:
        """Like :meth:`schedule`, but returns a :class:`TimerHandle`.

        The handle's :meth:`~TimerHandle.cancel` tombstones the queue
        entry in O(1), in either lane; the dispatch loop skips dead
        entries when they surface instead of dispatching them. Consensus
        engines use this for progress/view-change timers that are
        re-armed far more often than they fire.
        """
        if not delay >= 0:  # also refuses NaN, which compares false
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._sequence = sequence = self._sequence + 1
        handle = TimerHandle(callback)
        now = self.now
        time = now + delay
        entry = [time, sequence, handle._run, args]
        handle._entry = entry
        if time == now:
            self._ready.append(entry)
        else:
            _heappush(self._queue, entry)
        return handle

    def resume_after(self, delay: float, callback: typing.Callable[..., None], *args: object) -> None:
        """Run ``callback(*args)`` after a ``delay`` timer whose firing
        queues one ready-lane hop, in which ``callback`` runs.

        This is the wait of every loop and flow. Its two queue entries
        sit where those of a generator process waiting on a timeout sat,
        which the tests' generator reference makes (DESIGN §10). The hop
        is built here, on the next sequence number, and the timer (one
        :meth:`schedule` call) appends it to the ready lane when it
        fires, where a ``schedule(0.0, ...)`` call would have put it.
        Ready-lane entries pop in FIFO order and their sequence slot is
        never read, so the early number moves no dispatch.
        """
        self._sequence = sequence = self._sequence + 1
        self.schedule(delay, self._ready_append, (self.now + delay, sequence, callback, args))

    def run(self, until: typing.Optional[float] = None) -> float:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the simulated time at which execution stopped. When
        ``until`` is given, time is advanced to exactly ``until`` even if
        the queue drained earlier, mirroring wall-clock benchmark windows.

        With a live tracer, every pop reads the queue depth (entries left
        in both lanes) and counts once: as a dispatch, or as a cancelled
        timer. The loop tallies these in locals and folds them into the
        ``sim.queue_depth`` gauge and the ``sim.dispatches`` and
        ``sim.timers_cancelled`` counters once, when it exits by any
        path: the same final state as one ``Gauge.set`` and one
        ``Counter.inc`` per pop. An instrument is created only if a pop
        used it, so a run that pops nothing leaves the metrics untouched.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and until < self.now:
            return self.now  # every entry is due at or after now
        self._running = True
        # Hot loop. Both lanes and their pop methods live in locals, the
        # time bound folds the None check into one float compare, and the
        # tracer branch is hoisted out of the loop entirely (a tracer
        # installed mid-run takes effect on the next run() call, which is
        # the only way tracers are ever installed). The ready lane only
        # ever holds entries due at now <= bound, so only a clock advance
        # checks the bound.
        bound = math.inf if until is None else until
        queue = self._queue
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        try:
            if self.tracer.enabled:
                metrics = self.tracer.metrics
                dispatched = cancelled = depth = 0
                low = math.inf
                high = -math.inf
                try:
                    while True:
                        if ready:
                            entry = popleft()
                        elif queue and queue[0][0] <= bound:
                            entry = pop(queue)
                            now = self.now = entry[0]
                            while queue and queue[0][0] == now:
                                ready.append(pop(queue))
                        else:
                            break
                        depth = len(queue) + len(ready)
                        if depth > high:
                            high = depth
                        if depth < low:
                            low = depth
                        __, __, callback, args = entry
                        if callback is None:
                            cancelled += 1
                            continue
                        dispatched += 1
                        if args:
                            callback(*args)
                        else:
                            callback()
                finally:
                    # One flush per run, on every exit path (a raising
                    # callback included).
                    if dispatched or cancelled:
                        metrics.gauge("sim.queue_depth", system="sim").merge(
                            depth, low, high, dispatched + cancelled,
                        )
                    if cancelled:
                        metrics.counter("sim.timers_cancelled", system="sim").inc(cancelled)
                    if dispatched:
                        metrics.counter("sim.dispatches", system="sim").inc(dispatched)
            else:
                while True:
                    if ready:
                        entry = popleft()
                    elif queue and queue[0][0] <= bound:
                        entry = pop(queue)
                        now = self.now = entry[0]
                        while queue and queue[0][0] == now:
                            ready.append(pop(queue))
                    else:
                        break
                    __, __, callback, args = entry
                    if callback is None:
                        continue  # tombstoned (cancelled) timer
                    if args:
                        callback(*args)
                    else:
                        callback()
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return self.now

    def pending_events(self) -> int:
        """Number of entries still queued in both lanes (diagnostic).

        Cancelled-but-unpopped timers count, exactly as their
        fire-and-check no-op predecessors did.
        """
        return len(self._queue) + len(self._ready)
