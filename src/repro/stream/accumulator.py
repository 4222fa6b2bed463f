"""Online per-phase metric accumulators: how every run is measured.

Rather than keep one :class:`~repro.coconut.client.PayloadRecord` per
payload for the whole run and post-process the full list, these
accumulators fold every quantity the Section 4.5 formulas need into
constant state *as each payload resolves*, so a record is retired the
moment its confirmation (or rejection) arrives and client memory stays
bounded by the number of payloads in flight.

What is accumulated, and why it is enough:

* **Counters** — sent / received / failed / invalidated are sums, so
  per-event increments reproduce a pass over all records identically.
* **t_fstx / t_lrtx** — running min of send times and max of receive
  times; min/max are order-insensitive, so the merged extremes equal
  those of the full record list.
* **Latency sum** — kept as a Shewchuk exact-sum expansion (the
  algorithm behind :func:`math.fsum`): the partials represent the *true*
  real-number sum with no rounding, so accumulation order, client
  merge order and :mod:`repro.parallel` worker grouping cannot change
  the final (correctly rounded) mean.
* **Latency distribution** — a :class:`~repro.stream.histogram.LogHistogram`
  whose bucketing is a pure function of the value, making merges
  associative and percentiles exact to one bucket.
* **Resilience timeline** — when a fault plan's window touches the
  phase, confirmations are bucketed into a throughput timeline and the
  window's sent/committed/lost payloads counted incrementally, window
  bounds being known before the phase starts; the
  :class:`~repro.faults.metrics.ResilienceReport` is computed from
  those counters.
"""

from __future__ import annotations

import math
import typing

from repro.faults.metrics import RECOVERY_TOLERANCE, ResilienceReport
from repro.stream.histogram import LogHistogram

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.coconut.client import PayloadRecord
    from repro.stream.spill import RecordSink


class ExactSum:
    """Error-free running float sum (Shewchuk's expansion, as in fsum).

    ``add`` maintains a list of non-overlapping partials whose exact
    real sum equals the exact sum of everything added; ``value`` rounds
    that once, via :func:`math.fsum`. Because no intermediate rounding
    ever happens, the result is independent of accumulation and merge
    order — the property that makes streaming sums byte-identical
    across clients, threads and worker groupings.
    """

    __slots__ = ("partials",)

    def __init__(self) -> None:
        self.partials: typing.List[float] = []

    def add(self, x: float) -> None:
        """Fold one value into the expansion, exactly."""
        partials = self.partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        """Fold another expansion in; the union stays exact."""
        for partial in other.partials:
            self.add(partial)

    def value(self) -> float:
        """The correctly rounded sum of everything added."""
        return math.fsum(self.partials)


class ResilienceAccumulator:
    """The throughput timeline and window counts around one fault window.

    Armed before the phase runs (fault and phase windows are both known
    then), it ingests send and retire events; every count is a sum and
    the timeline buckets confirmations by end time, so merging the
    clients' accumulators in any order yields the same report.
    """

    __slots__ = (
        "fault_start",
        "fault_end",
        "phase_start",
        "phase_end",
        "bucket_width",
        "tolerance",
        "counts",
        "sent_in_window",
        "received_in_window",
        "committed_in_window",
        "pre_fault_commits",
    )

    def __init__(
        self,
        fault_start: float,
        fault_end: float,
        phase_start: float,
        phase_end: float,
        bucket_width: float = 1.0,
        tolerance: float = RECOVERY_TOLERANCE,
    ) -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be > 0, got {bucket_width}")
        if phase_end <= phase_start:
            raise ValueError("phase_end must be after phase_start")
        self.fault_start = fault_start
        self.fault_end = fault_end
        self.phase_start = phase_start
        self.phase_end = phase_end
        self.bucket_width = bucket_width
        self.tolerance = tolerance
        span = phase_end - phase_start
        self.counts = [0] * max(1, int(math.ceil(span / bucket_width)))
        self.sent_in_window = 0
        #: Received payloads whose *send* fell in the window; losses are
        #: ``sent_in_window`` minus this — the payloads sent in the window
        #: and never received (pending payloads never retire as
        #: received, so they count as lost).
        self.received_in_window = 0
        self.committed_in_window = 0
        self.pre_fault_commits = 0

    def on_send(self, start_time: float) -> None:
        if self.fault_start <= start_time <= self.fault_end:
            self.sent_in_window += 1

    def on_receive(self, start_time: float, end_time: float) -> None:
        if self.fault_start <= start_time <= self.fault_end:
            self.received_in_window += 1
        if self.fault_start <= end_time <= self.fault_end:
            self.committed_in_window += 1
        if end_time < self.fault_start:
            self.pre_fault_commits += 1
        index = int((end_time - self.phase_start) / self.bucket_width)
        if 0 <= index < len(self.counts):
            self.counts[index] += 1

    def merge(self, other: "ResilienceAccumulator") -> None:
        """Fold another client's accumulator in (same windows required)."""
        if (
            self.fault_start != other.fault_start
            or self.fault_end != other.fault_end
            or self.phase_start != other.phase_start
            or self.phase_end != other.phase_end
            or self.bucket_width != other.bucket_width
        ):
            raise ValueError("cannot merge resilience accumulators with different windows")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.sent_in_window += other.sent_in_window
        self.received_in_window += other.received_in_window
        self.committed_in_window += other.committed_in_window
        self.pre_fault_commits += other.pre_fault_commits

    def report(self) -> ResilienceReport:
        """The window's report: baseline, dip, recovery and counts."""
        bucket_width = self.bucket_width
        bucket_count = len(self.counts)
        timeline = [count / bucket_width for count in self.counts]
        baseline_window = max(0.0, self.fault_start - self.phase_start)
        baseline_tps = (
            self.pre_fault_commits / baseline_window if baseline_window > 0 else 0.0
        )
        first_fault_bucket = max(
            0, int((self.fault_start - self.phase_start) / bucket_width)
        )
        last_fault_bucket = min(
            bucket_count - 1, int((self.fault_end - self.phase_start) / bucket_width)
        )
        if first_fault_bucket <= last_fault_bucket:
            dip_tps = min(timeline[first_fault_bucket : last_fault_bucket + 1])
        else:
            dip_tps = baseline_tps
        dip_depth = 0.0
        if baseline_tps > 0:
            dip_depth = max(0.0, 1.0 - dip_tps / baseline_tps)
        time_to_recover: typing.Optional[float] = None
        if baseline_tps > 0:
            threshold = self.tolerance * baseline_tps
            first_post_bucket = int(
                math.ceil((self.fault_end - self.phase_start) / bucket_width)
            )
            for index in range(max(0, first_post_bucket), bucket_count):
                if timeline[index] >= threshold:
                    bucket_end = self.phase_start + (index + 1) * bucket_width
                    time_to_recover = max(0.0, bucket_end - self.fault_end)
                    break
        return ResilienceReport(
            fault_start=self.fault_start,
            fault_end=self.fault_end,
            bucket_width=bucket_width,
            timeline=timeline,
            timeline_start=self.phase_start,
            baseline_tps=baseline_tps,
            dip_tps=dip_tps,
            dip_depth=dip_depth,
            time_to_recover=time_to_recover,
            sent_in_window=self.sent_in_window,
            committed_in_window=self.committed_in_window,
            lost_in_window=self.sent_in_window - self.received_in_window,
        )


class PhaseAccumulator:
    """One client's (or one merge's) running totals for one phase."""

    __slots__ = (
        "phase",
        "sent",
        "received",
        "failed",
        "invalidated",
        "first_send",
        "last_receive",
        "latency",
        "histogram",
        "resilience",
    )

    def __init__(self, phase: str) -> None:
        self.phase = phase
        self.sent = 0
        self.received = 0
        self.failed = 0
        self.invalidated = 0
        self.first_send: typing.Optional[float] = None
        self.last_receive: typing.Optional[float] = None
        self.latency = ExactSum()
        self.histogram = LogHistogram()
        #: Armed by the runner when a fault window touches the phase.
        self.resilience: typing.Optional[ResilienceAccumulator] = None

    # ------------------------------------------------------------------
    # Event ingestion

    def on_send(self, start_time: float, count: int = 1) -> None:
        """``count`` payloads offered at ``start_time``."""
        self.sent += count
        if self.first_send is None or start_time < self.first_send:
            self.first_send = start_time
        if self.resilience is not None:
            for __ in range(count):
                self.resilience.on_send(start_time)

    def on_retire(self, record: "PayloadRecord") -> None:
        """A payload resolved (received or failed); fold it in."""
        if record.received:
            self.received += 1
            if record.invalid:
                self.invalidated += 1
            end_time = typing.cast(float, record.end_time)
            latency = end_time - record.start_time
            self.latency.add(latency)
            self.histogram.record(latency)
            if self.last_receive is None or end_time > self.last_receive:
                self.last_receive = end_time
            if self.resilience is not None:
                self.resilience.on_receive(record.start_time, end_time)
        elif record.status == "failed":
            self.failed += 1

    # ------------------------------------------------------------------
    # Reading and merging

    @property
    def mean_latency(self) -> float:
        """Correctly rounded mean finalization latency."""
        if self.received == 0:
            return 0.0
        return self.latency.value() / self.received

    def merge(self, other: "PhaseAccumulator") -> None:
        """Fold another accumulator for the same phase in."""
        if self.phase != other.phase:
            raise ValueError(
                f"cannot merge accumulators of phases {self.phase!r} and {other.phase!r}"
            )
        self.sent += other.sent
        self.received += other.received
        self.failed += other.failed
        self.invalidated += other.invalidated
        if other.first_send is not None and (
            self.first_send is None or other.first_send < self.first_send
        ):
            self.first_send = other.first_send
        if other.last_receive is not None and (
            self.last_receive is None or other.last_receive > self.last_receive
        ):
            self.last_receive = other.last_receive
        self.latency.merge(other.latency)
        self.histogram.merge(other.histogram)
        if other.resilience is not None:
            if self.resilience is None:
                raise ValueError("cannot merge an armed accumulator into an unarmed one")
            self.resilience.merge(other.resilience)

    @classmethod
    def merged(
        cls, accumulators: typing.Sequence["PhaseAccumulator"], phase: str
    ) -> "PhaseAccumulator":
        """A fresh accumulator holding the union of several clients'."""
        result = cls(phase)
        if accumulators and accumulators[0].resilience is not None:
            first = accumulators[0].resilience
            result.resilience = ResilienceAccumulator(
                fault_start=first.fault_start,
                fault_end=first.fault_end,
                phase_start=first.phase_start,
                phase_end=first.phase_end,
                bucket_width=first.bucket_width,
                tolerance=first.tolerance,
            )
        for accumulator in accumulators:
            result.merge(accumulator)
        return result

    def to_dict(self) -> typing.Dict[str, object]:
        """JSON-ready snapshot (the latency sum is rounded once here)."""
        return {
            "phase": self.phase,
            "sent": self.sent,
            "received": self.received,
            "failed": self.failed,
            "invalidated": self.invalidated,
            "first_send": self.first_send,
            "last_receive": self.last_receive,
            "latency_sum": self.latency.value(),
            "histogram": self.histogram.to_dict(),
        }


class ClientStream:
    """A client's streaming state: accumulators, spill, live-record peak."""

    __slots__ = ("client_id", "accumulators", "sink", "peak_live", "spilled")

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
        self.accumulators: typing.Dict[str, PhaseAccumulator] = {}
        #: Optional full-fidelity record sink; shared across clients.
        self.sink: typing.Optional["RecordSink"] = None
        #: Most records simultaneously tracked (in flight) at any point —
        #: bounded by the load in flight, not the total offered load.
        self.peak_live = 0
        self.spilled = 0

    def begin_phase(self, phase: str) -> PhaseAccumulator:
        """The phase's accumulator, created on first use."""
        accumulator = self.accumulators.get(phase)
        if accumulator is None:
            accumulator = PhaseAccumulator(phase)
            self.accumulators[phase] = accumulator
        return accumulator

    def accumulator(self, phase: str) -> PhaseAccumulator:
        """The phase's accumulator (must exist)."""
        return self.accumulators[phase]

    def note_live(self, live: int) -> None:
        """Track the in-flight record high-water mark."""
        if live > self.peak_live:
            self.peak_live = live

    def retire(self, phase: str, record: "PayloadRecord") -> None:
        """Fold a resolved record in and spill it if a sink is attached."""
        self.accumulators[phase].on_retire(record)
        if self.sink is not None:
            self.sink.write_record(self.client_id, record)
            self.spilled += 1

    def expire(self, phase: str, record: "PayloadRecord") -> None:
        """A record still pending at phase teardown; spill only.

        Pending payloads already count in ``sent`` (and as in-window
        losses when resilience is armed), so no counters move here.
        """
        if self.sink is not None:
            self.sink.write_record(self.client_id, record)
            self.spilled += 1
