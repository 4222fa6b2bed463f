"""The simulation event loop.

:class:`Simulator` owns simulated time and a two-lane queue of scheduled
callbacks: a FIFO ready lane for the current instant and a heap for later
times. Everything else in the package — events, processes, stores,
network links — ultimately reduces to ``schedule(delay, fn, *args)``
calls against one Simulator instance.
"""

from __future__ import annotations

import collections
import heapq
import math
import typing

from repro.invariants.checker import NOOP_CHECKER
from repro.sim.events import Event, SimulationError, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.trace.tracer import NOOP_TRACER

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.invariants.checker import InvariantChecker
    from repro.trace.tracer import Tracer

_heappush = heapq.heappush


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
    """

    __slots__ = ("_entry", "_callback", "_fired")

    def __init__(self, callback: typing.Callable[..., None]) -> None:
        self._callback = callback
        self._fired = False
        self._entry: list = []

    @property
    def active(self) -> bool:
        """Whether the timer is still pending (not fired, not cancelled)."""
        return not self._fired and self._entry[2] is not None

    def cancel(self) -> bool:
        """Tombstone the timer. Returns ``False`` if it already fired or
        was already cancelled (both are safe no-ops)."""
        if self._fired:
            return False
        entry = self._entry
        if entry[2] is None:
            return False
        entry[2] = None
        entry[3] = ()  # drop callback/argument refs promptly
        return True

    def _run(self, *args: object) -> None:
        self._fired = True
        self._callback(*args)


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a float in seconds, starting at 0. Callbacks run in
    ``(time, sequence)`` order, where the sequence number counts
    :meth:`schedule` calls: callbacks scheduled for the same instant run
    in schedule order (FIFO), which keeps runs fully deterministic for a
    fixed seed.

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
        self._now = 0.0
        #: Entries due after ``now``, a heap ordered by (time, sequence).
        self._queue: list = []
        #: Entries due at ``now``, in sequence order.
        self._ready: collections.deque = collections.deque()
        self._sequence = 0
        self._running = False
        self.rng = RngRegistry(seed)
        self.tracer = NOOP_TRACER
        self.checker = NOOP_CHECKER

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def set_tracer(self, tracer: "Tracer") -> None:
        """Install a tracer and bind its clock to this simulator."""
        self.tracer = tracer
        tracer.bind_clock(lambda: self._now)

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
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._sequence = sequence = self._sequence + 1
        now = self._now
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
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._sequence = sequence = self._sequence + 1
        handle = TimerHandle(callback)
        now = self._now
        time = now + delay
        entry = [time, sequence, handle._run, args]
        handle._entry = entry
        if time == now:
            self._ready.append(entry)
        else:
            _heappush(self._queue, entry)
        return handle

    def resume_after(self, delay: float, callback: typing.Callable[..., None], *args: object) -> None:
        """Run ``callback(*args)`` the way a process resumes from ``yield
        sim.timeout(delay)``: a ``delay`` timer whose firing schedules one
        ready-lane hop, in which ``callback`` runs.

        Both hops take a sequence number exactly where the timeout and
        the process wake-up took theirs, so a callback chain built on
        this dispatches in the order the generator it replaces did.
        """
        self.schedule(delay, self.schedule, 0.0, callback, *args)

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create a :class:`Timeout` firing after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def spawn(self, generator: typing.Generator, name: str = "") -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def run(self, until: typing.Optional[float] = None) -> float:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the simulated time at which execution stopped. When
        ``until`` is given, time is advanced to exactly ``until`` even if
        the queue drained earlier, mirroring wall-clock benchmark windows.

        With a live tracer, every pop sets the ``sim.queue_depth`` gauge
        (entries left in both lanes) and counts once: in
        ``sim.dispatches``, or in ``sim.timers_cancelled`` when it was a
        cancelled timer. Each instrument is created on its first use, so
        a run that pops nothing leaves the metrics untouched.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and until < self._now:
            return self._now  # every entry is due at or after now
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
                depth = dispatches = cancelled = None
                while True:
                    if ready:
                        entry = popleft()
                    elif queue and queue[0][0] <= bound:
                        entry = pop(queue)
                        now = self._now = entry[0]
                        while queue and queue[0][0] == now:
                            ready.append(pop(queue))
                    else:
                        break
                    if depth is None:
                        depth = metrics.gauge("sim.queue_depth", system="sim")
                    depth.set(len(queue) + len(ready))
                    __, __, callback, args = entry
                    if callback is None:
                        if cancelled is None:
                            cancelled = metrics.counter("sim.timers_cancelled", system="sim")
                        cancelled.inc()
                        continue
                    if dispatches is None:
                        dispatches = metrics.counter("sim.dispatches", system="sim")
                    dispatches.inc()
                    if args:
                        callback(*args)
                    else:
                        callback()
            else:
                while True:
                    if ready:
                        entry = popleft()
                    elif queue and queue[0][0] <= bound:
                        entry = pop(queue)
                        now = self._now = entry[0]
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
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def pending_events(self) -> int:
        """Number of entries still queued in both lanes (diagnostic).

        Cancelled-but-unpopped timers count, exactly as their
        fire-and-check no-op predecessors did.
        """
        return len(self._queue) + len(self._ready)
