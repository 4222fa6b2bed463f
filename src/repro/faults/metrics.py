"""Resilience metrics derived from client-side payload timestamps.

The COCONUT client already timestamps every payload (start on submit,
end on the all-nodes finality confirmation). Bucketing those
confirmations into a throughput timeline around the fault window yields
the quantities a resilience experiment reports:

* **baseline** — confirmations/second before the first fault action,
* **dip depth** — how far the worst in-window bucket falls below it,
* **time to recover** — from the end of the last fault effect to the end
  of the first later bucket whose throughput reaches
  ``tolerance x baseline`` (one bucket; later buckets may fall again),
* **committed / lost in window** — payloads confirmed during the fault
  window vs payloads submitted during it that never confirmed.

Everything here is pure arithmetic over simulated timestamps, so two
runs with the same seed and plan produce identical reports. The
arithmetic runs as payloads resolve, in
:class:`repro.stream.accumulator.ResilienceAccumulator`; this module
holds the report it produces.
"""

from __future__ import annotations

import dataclasses
import typing

#: Fraction of the pre-fault baseline that counts as "recovered".
RECOVERY_TOLERANCE = 0.5


@dataclasses.dataclass
class ResilienceReport:
    """What happened to throughput around one fault window."""

    fault_start: float
    fault_end: float
    bucket_width: float
    #: Confirmations/second per bucket, from phase start to phase end.
    timeline: typing.List[float]
    #: Absolute time of the first bucket's left edge.
    timeline_start: float
    baseline_tps: float
    dip_tps: float
    #: 0.0 (no dip) .. 1.0 (full outage); 0.0 when there is no baseline.
    dip_depth: float
    #: Seconds from fault end to the end of the first post-fault bucket
    #: at or above ``tolerance x baseline_tps``; None = no such bucket.
    #: One bucket suffices: throughput may drop again after it.
    time_to_recover: typing.Optional[float]
    sent_in_window: int
    committed_in_window: int
    lost_in_window: int

    @property
    def recovered(self) -> bool:
        """Whether throughput returned after the fault window."""
        return self.time_to_recover is not None

    def to_dict(self) -> typing.Dict[str, object]:
        """A JSON-ready dict (stored on the phase metrics)."""
        return {
            "fault_start": self.fault_start,
            "fault_end": self.fault_end,
            "bucket_width": self.bucket_width,
            "baseline_tps": self.baseline_tps,
            "dip_tps": self.dip_tps,
            "dip_depth": self.dip_depth,
            "time_to_recover": self.time_to_recover,
            "recovered": self.recovered,
            "sent_in_window": self.sent_in_window,
            "committed_in_window": self.committed_in_window,
            "lost_in_window": self.lost_in_window,
        }

    @classmethod
    def from_dict(cls, data: typing.Mapping[str, object]) -> "ResilienceReport":
        """Rebuild a report from :meth:`to_dict` output.

        The bucket timeline is not serialised (it scales with the phase
        window); a reconstructed report carries an empty timeline but
        every scalar the resilience tables render.
        """
        return cls(
            fault_start=typing.cast(float, data["fault_start"]),
            fault_end=typing.cast(float, data["fault_end"]),
            bucket_width=typing.cast(float, data["bucket_width"]),
            timeline=list(typing.cast(typing.List[float], data.get("timeline", []))),
            timeline_start=typing.cast(float, data.get("timeline_start", 0.0)),
            baseline_tps=typing.cast(float, data["baseline_tps"]),
            dip_tps=typing.cast(float, data["dip_tps"]),
            dip_depth=typing.cast(float, data["dip_depth"]),
            time_to_recover=typing.cast(
                typing.Optional[float], data.get("time_to_recover")
            ),
            sent_in_window=typing.cast(int, data["sent_in_window"]),
            committed_in_window=typing.cast(int, data["committed_in_window"]),
            lost_in_window=typing.cast(int, data["lost_in_window"]),
        )

    def render(self) -> str:
        """A short human-readable summary."""
        recover = (
            f"{self.time_to_recover:.1f}s" if self.time_to_recover is not None else "never"
        )
        return (
            f"fault window [{self.fault_start:.1f}s, {self.fault_end:.1f}s]: "
            f"baseline {self.baseline_tps:.2f} tps, dip {self.dip_tps:.2f} tps "
            f"({self.dip_depth:.0%} deep), recovered {recover}; "
            f"in-window sent={self.sent_in_window} "
            f"committed={self.committed_in_window} lost={self.lost_in_window}"
        )
