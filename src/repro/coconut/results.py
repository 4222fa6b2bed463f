"""Result objects and persistence (Figure 1's database system)."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import typing

from repro.coconut.metrics import MetricSummary, PhaseMetrics, aggregate
from repro.faults.metrics import ResilienceReport


@dataclasses.dataclass
class PhaseResult:
    """One phase of one benchmark unit, aggregated over repetitions."""

    phase: str
    repetitions: typing.List[PhaseMetrics]

    @property
    def mtps(self) -> MetricSummary:
        """Formula (2) across repetitions."""
        return aggregate([rep.tps for rep in self.repetitions])

    @property
    def mfls(self) -> MetricSummary:
        """Formula (1) across repetitions."""
        return aggregate([rep.mean_fls for rep in self.repetitions])

    @property
    def duration(self) -> MetricSummary:
        """Formula (3) across repetitions."""
        return aggregate([rep.duration for rep in self.repetitions])

    @property
    def p50(self) -> MetricSummary:
        """Median finalization latency across repetitions."""
        return aggregate([rep.p50_fls for rep in self.repetitions])

    @property
    def p95(self) -> MetricSummary:
        """95th-percentile finalization latency across repetitions."""
        return aggregate([rep.p95_fls for rep in self.repetitions])

    @property
    def p99(self) -> MetricSummary:
        """99th-percentile finalization latency across repetitions."""
        return aggregate([rep.p99_fls for rep in self.repetitions])

    @property
    def invalidated(self) -> MetricSummary:
        """Appended-but-invalid transactions across repetitions."""
        return aggregate([float(rep.invalidated) for rep in self.repetitions])

    @property
    def received(self) -> MetricSummary:
        """Received NoT across repetitions."""
        return aggregate([float(rep.received) for rep in self.repetitions])

    @property
    def expected(self) -> MetricSummary:
        """Expected NoT across repetitions."""
        return aggregate([float(rep.expected) for rep in self.repetitions])

    def latency_histograms(self) -> typing.List[dict]:
        """Serialized per-repetition latency histograms.

        Empty on results written before runs recorded them;
        :mod:`repro.analysis.histstats` merges these for cross-repetition
        percentile curves.
        """
        return [
            rep.latency_histogram
            for rep in self.repetitions
            if rep.latency_histogram is not None
        ]

    def resilience_report(self) -> typing.Optional[ResilienceReport]:
        """The last repetition's resilience report; None when the fault
        window did not touch this phase (or the unit ran healthy)."""
        data = self.repetitions[-1].resilience
        return None if data is None else ResilienceReport.from_dict(data)

    @property
    def loss_fraction(self) -> float:
        """Share of expected transactions never confirmed."""
        expected = self.expected.mean
        if expected <= 0:
            return 0.0
        return max(0.0, 1.0 - self.received.mean / expected)

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "repetitions": [rep.to_dict() for rep in self.repetitions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseResult":
        return cls(
            phase=data["phase"],
            repetitions=[PhaseMetrics.from_dict(rep) for rep in data["repetitions"]],
        )


@dataclasses.dataclass
class UnitResult:
    """One benchmark unit: configuration label plus per-phase results."""

    label: str
    system: str
    iel: str
    aggregate_rate: int
    params: typing.Dict[str, object]
    scale: float
    phases: typing.Dict[str, PhaseResult]

    def phase(self, name: str) -> PhaseResult:
        """One phase's result."""
        return self.phases[name]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "system": self.system,
            "iel": self.iel,
            "aggregate_rate": self.aggregate_rate,
            "params": self.params,
            "scale": self.scale,
            "phases": {name: result.to_dict() for name, result in self.phases.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UnitResult":
        return cls(
            label=data["label"],
            system=data["system"],
            iel=data["iel"],
            aggregate_rate=data["aggregate_rate"],
            params=data["params"],
            scale=data["scale"],
            phases={
                name: PhaseResult.from_dict(result) for name, result in data["phases"].items()
            },
        )


class ResultStore:
    """Persists unit results as JSON files in a directory."""

    def __init__(self, directory: typing.Union[str, pathlib.Path]) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, label: str) -> pathlib.Path:
        """File path of one result.

        Sanitisation alone maps distinct labels to one file (``rate:100``
        and ``rate_100`` both become ``rate_100``), silently overwriting
        results; whenever a character was replaced, a short hash of the
        original label is appended to keep paths collision-free.
        """
        safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in label)
        if safe != label:
            digest = hashlib.sha256(label.encode("utf-8")).hexdigest()[:8]
            safe = f"{safe}-{digest}"
        return self.directory / f"{safe}.json"

    def save(self, result: UnitResult) -> pathlib.Path:
        """Write one result; returns its path."""
        path = self.path_for(result.label)
        path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return path

    def load(self, label: str) -> UnitResult:
        """Read one result back."""
        path = self.path_for(label)
        return UnitResult.from_dict(json.loads(path.read_text()))

    def labels(self) -> typing.List[str]:
        """Labels of all stored results."""
        return sorted(path.stem for path in self.directory.glob("*.json"))
