"""The evaluation metrics of Section 4.5.

* Formula (1) — MFLS: the mean finalization latency, averaged first over
  a repetition's transactions and then over repetitions.
* Formula (2) — MTPS: received transactions divided by the span from the
  first send (t_fstx) to the last confirmation (t_lrtx), across all
  clients, averaged over repetitions.
* Formula (3) — Duration: t_lrtx - t_fstx, which exposes liveness
  violations (a system that stops early, or runs past the send window).
* NoT: expected / received / not received transaction counts.

Per-repetition values carry SD, SEM and the 95% confidence interval
(Student t, matching the paper's r=3 statistics).

Every quantity is read off the clients' streaming accumulators
(:mod:`repro.stream`), folded in as each payload resolves: counts,
t_fstx/t_lrtx, duration and TPS are exact, MFLS is the correctly
rounded mean of an exact latency sum, and p50/p95/p99 come from a
log-bucketed histogram, exact to one ~2.6% bucket.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.stream.accumulator import PhaseAccumulator


#: Two-sided 95% Student-t critical values (t_{0.975, df}) for df 1-30.
#: Built in because the project declares zero dependencies: pulling scipy
#: for one quantile would crash repetitions>1 runs on clean machines.
_T_CRITICAL_95 = (
    12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
    2.2622, 2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
    2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
    2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
)

#: The normal-limit value t_{0.975, inf}.
_T_CRITICAL_95_INF = 1.9600


def t_critical(df: int, two_sided_alpha: float = 0.05) -> float:
    """Student-t critical value for a two-sided interval.

    Exact table values for df <= 30, then a 1/df interpolation toward
    the normal limit (accurate to ~1e-3 over the whole tail — e.g.
    df=60 -> 2.001 vs. the true 2.0003). Only alpha=0.05 is supported;
    that is the paper's (and this package's) only confidence level.
    """
    if df < 1:
        return 0.0
    if abs(two_sided_alpha - 0.05) > 1e-9:
        raise ValueError(
            f"only two-sided alpha=0.05 is tabulated, got {two_sided_alpha}"
        )
    if df <= len(_T_CRITICAL_95):
        return _T_CRITICAL_95[df - 1]
    span = _T_CRITICAL_95[-1] - _T_CRITICAL_95_INF
    return _T_CRITICAL_95_INF + span * len(_T_CRITICAL_95) / df


@dataclasses.dataclass(frozen=True)
class MetricSummary:
    """Mean with dispersion statistics across repetitions."""

    mean: float
    sd: float
    sem: float
    ci95: float

    def format(self, digits: int = 2) -> str:
        """``"12.84 ±0.38"`` style rendering."""
        return f"{self.mean:.{digits}f} ±{self.ci95:.{digits}f}"


def aggregate(values: typing.Sequence[float]) -> MetricSummary:
    """Summarise one metric across repetitions (Section 5 statistics)."""
    if not values:
        return MetricSummary(0.0, 0.0, 0.0, 0.0)
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return MetricSummary(mean, 0.0, 0.0, 0.0)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    sd = math.sqrt(variance)
    sem = sd / math.sqrt(n)
    ci95 = t_critical(n - 1) * sem
    return MetricSummary(mean, sd, sem, ci95)


def confidence_interval(values: typing.Sequence[float]) -> typing.Tuple[float, float]:
    """The 95% CI bounds for a metric's repetitions."""
    summary = aggregate(values)
    return summary.mean - summary.ci95, summary.mean + summary.ci95


@dataclasses.dataclass
class PhaseMetrics:
    """One repetition's end-to-end numbers for one phase."""

    phase: str
    repetition: int
    expected: int
    received: int
    failed: int
    t_first_send: float
    t_last_receive: float
    duration: float
    tps: float
    mean_fls: float
    #: Finalization-latency percentiles of the repetition's received
    #: transactions (nearest rank, exact to one histogram bucket) — the
    #: tail the mean hides.
    p50_fls: float = 0.0
    p95_fls: float = 0.0
    p99_fls: float = 0.0
    #: Received transactions that were appended but marked invalid
    #: (Fabric's MVCC conflicts). The paper counts them as received
    #: (Section 5.4); this keeps the conflict rate visible anyway.
    invalidated: int = 0
    #: :meth:`repro.faults.metrics.ResilienceReport.to_dict` output when
    #: the repetition ran under a fault plan whose window touched this
    #: phase; None for healthy runs.
    resilience: typing.Optional[dict] = None
    #: :meth:`repro.invariants.report.InvariantReport.to_dict` output for
    #: the repetition, attached to its final phase when the run was
    #: checked (the report spans all phases); None otherwise.
    invariants: typing.Optional[dict] = None
    #: Serialized :class:`repro.stream.LogHistogram` of the repetition's
    #: finalization latencies. None only on results written before
    #: runs recorded it (and then omitted from :meth:`to_dict`).
    latency_histogram: typing.Optional[dict] = None

    @property
    def not_received(self) -> int:
        """Expected transactions that never confirmed."""
        return self.expected - self.received

    @classmethod
    def from_accumulator(
        cls, merged: PhaseAccumulator, repetition: int
    ) -> "PhaseMetrics":
        """Formulas (1)-(3) from one phase's accumulator, merged over clients.

        Counts, extremes, duration and TPS equal a brute-force pass over
        every record bit for bit (sums and min/max are order-insensitive);
        MFLS is the correctly rounded mean of an exact (Shewchuk) latency
        sum; p50/p95/p99 come from the merged log-bucketed histogram and
        are exact to one bucket. ``tests/stream/test_equivalence.py``
        pins the contract against the retained records, run for run.
        """
        histogram = merged.histogram.to_dict()
        if merged.received == 0 or merged.first_send is None or merged.last_receive is None:
            # Total failure: the paper reports 0 MTPS / 0 s (Table 15).
            return cls(
                phase=merged.phase,
                repetition=repetition,
                expected=merged.sent,
                received=0,
                failed=merged.failed,
                t_first_send=merged.first_send if merged.first_send is not None else 0.0,
                t_last_receive=0.0,
                duration=0.0,
                tps=0.0,
                mean_fls=0.0,
                latency_histogram=histogram,
            )
        t_fstx = merged.first_send
        t_lrtx = merged.last_receive
        duration = t_lrtx - t_fstx
        tps = merged.received / duration if duration > 0 else 0.0
        p50, p95, p99 = merged.histogram.percentiles((50, 95, 99))
        return cls(
            phase=merged.phase,
            repetition=repetition,
            expected=merged.sent,
            received=merged.received,
            failed=merged.failed,
            t_first_send=t_fstx,
            t_last_receive=t_lrtx,
            duration=duration,
            tps=tps,
            mean_fls=merged.mean_latency,
            p50_fls=p50,
            p95_fls=p95,
            p99_fls=p99,
            invalidated=merged.invalidated,
            latency_histogram=histogram,
        )

    def to_dict(self) -> dict:
        """JSON-ready representation.

        A missing histogram (a result loaded from a file written before
        runs recorded one) stays missing rather than becoming null.
        """
        data = dataclasses.asdict(self)
        if data.get("latency_histogram") is None:
            del data["latency_histogram"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseMetrics":
        """Inverse of :meth:`to_dict`, tolerant of unknown keys.

        Result JSON written by a *newer* schema (extra fields) must
        still load: filtering to the known field set means old code can
        read new files, the usual forward-compatibility contract for
        persisted results.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})
