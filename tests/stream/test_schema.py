"""Result-schema contracts around the streaming fields."""

import dataclasses

from repro.coconut.metrics import PhaseMetrics
from repro.coconut.results import PhaseResult
from repro.stream import LogHistogram


def metrics(**overrides):
    base = dict(
        phase="Set", repetition=0, expected=10, received=9, failed=1,
        t_first_send=0.0, t_last_receive=5.0, duration=5.0, tps=1.8,
        mean_fls=0.7,
    )
    base.update(overrides)
    return PhaseMetrics(**base)


class TestToDict:
    def test_missing_histogram_omits_key(self):
        # A result loaded from a file written before runs recorded
        # histograms must serialize back to the same bytes.
        assert "latency_histogram" not in metrics().to_dict()

    def test_streamed_path_keeps_histogram(self):
        h = LogHistogram()
        h.record(0.7)
        data = metrics(latency_histogram=h.to_dict()).to_dict()
        assert data["latency_histogram"] == h.to_dict()


class TestFromDict:
    def test_round_trip(self):
        h = LogHistogram()
        h.record(0.7, count=9)
        original = metrics(latency_histogram=h.to_dict())
        assert PhaseMetrics.from_dict(original.to_dict()) == original

    def test_round_trip_without_histogram(self):
        original = metrics()
        assert PhaseMetrics.from_dict(original.to_dict()) == original

    def test_unknown_keys_tolerated(self):
        # Files written by a newer schema must still load: extra fields
        # are dropped, known ones kept.
        data = metrics().to_dict()
        data["introduced_in_the_future"] = {"nested": [1, 2, 3]}
        data["another_new_scalar"] = 42.0
        loaded = PhaseMetrics.from_dict(data)
        assert loaded == metrics()
        assert not hasattr(loaded, "introduced_in_the_future")

    def test_all_fields_survive(self):
        original = metrics(
            p50_fls=0.5, p95_fls=0.9, p99_fls=1.1, invalidated=2,
            resilience={"lost_in_window": 3}, invariants={"ok": True},
        )
        restored = PhaseMetrics.from_dict(original.to_dict())
        for field in dataclasses.fields(PhaseMetrics):
            assert getattr(restored, field.name) == getattr(original, field.name)


class TestPhaseResultAccessors:
    def test_latency_histograms_skip_missing(self):
        h = LogHistogram()
        h.record(0.7)
        mixed = PhaseResult(
            phase="Set",
            repetitions=[metrics(latency_histogram=h.to_dict()), metrics()],
        )
        old = PhaseResult(phase="Set", repetitions=[metrics()])
        assert mixed.latency_histograms() == [h.to_dict()]
        assert old.latency_histograms() == []
