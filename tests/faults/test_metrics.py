"""Tests for resilience metrics arithmetic.

Records are fed to a :class:`ResilienceAccumulator` the way clients feed
it during a run: every send, then every confirmation.
"""

import dataclasses
import typing

import pytest

from repro.stream import ResilienceAccumulator


@dataclasses.dataclass
class Record:
    start_time: float
    end_time: typing.Optional[float]
    received: bool


def steady_records(start, end, rate=10, latency=0.2):
    """One confirmed payload every 1/rate seconds in [start, end)."""
    records = []
    step = 1.0 / rate
    t = start
    while t < end:
        records.append(Record(start_time=t, end_time=t + latency, received=True))
        t += step
    return records


def report_from(records, **windows):
    """The resilience report of a phase whose payloads are ``records``."""
    accumulator = ResilienceAccumulator(**windows)
    for record in records:
        accumulator.on_send(record.start_time)
        if record.received:
            accumulator.on_receive(record.start_time, record.end_time)
    return accumulator.report()


class TestHappyArithmetic:
    def test_full_outage_then_recovery(self):
        # 10 tps for 10 s, nothing during the fault [10, 15], 10 tps after.
        records = steady_records(0.0, 10.0) + steady_records(15.0, 30.0)
        report = report_from(
            records, fault_start=10.0, fault_end=15.0, phase_start=0.0, phase_end=30.0
        )
        assert report.baseline_tps == pytest.approx(10.0, rel=0.1)
        assert report.dip_tps == 0.0
        assert report.dip_depth == 1.0
        assert report.recovered
        assert report.time_to_recover == pytest.approx(1.0)

    def test_partial_dip(self):
        records = steady_records(0.0, 10.0) + steady_records(10.0, 30.0, rate=5)
        report = report_from(
            records, fault_start=10.0, fault_end=15.0, phase_start=0.0, phase_end=30.0
        )
        assert 0.0 < report.dip_depth < 1.0
        assert report.recovered  # 5 tps is within 50% of the 10 tps baseline

    def test_never_recovers(self):
        records = steady_records(0.0, 10.0)
        report = report_from(
            records, fault_start=10.0, fault_end=15.0, phase_start=0.0, phase_end=30.0
        )
        assert not report.recovered
        assert report.time_to_recover is None

    def test_window_accounting(self):
        records = [
            Record(start_time=11.0, end_time=12.0, received=True),   # sent+committed in window
            Record(start_time=12.0, end_time=None, received=False),  # sent in window, lost
            Record(start_time=2.0, end_time=13.0, received=True),    # committed in window only
            Record(start_time=20.0, end_time=21.0, received=True),   # outside entirely
        ]
        report = report_from(
            records, fault_start=10.0, fault_end=15.0, phase_start=0.0, phase_end=30.0
        )
        assert report.sent_in_window == 2
        assert report.lost_in_window == 1
        assert report.committed_in_window == 2

    def test_no_baseline_means_no_dip_judgement(self):
        # Fault at phase start: there is nothing to compare against.
        records = steady_records(5.0, 10.0)
        report = report_from(
            records, fault_start=0.0, fault_end=2.0, phase_start=0.0, phase_end=10.0
        )
        assert report.baseline_tps == 0.0
        assert report.dip_depth == 0.0
        assert not report.recovered


class TestValidationAndShape:
    def test_bad_bucket_width_rejected(self):
        with pytest.raises(ValueError):
            report_from(
                [], fault_start=0, fault_end=1, phase_start=0, phase_end=10,
                bucket_width=0,
            )

    def test_empty_phase_rejected(self):
        with pytest.raises(ValueError):
            report_from(
                [], fault_start=0, fault_end=1, phase_start=5, phase_end=5
            )

    def test_to_dict_round_trips_scalars(self):
        records = steady_records(0.0, 10.0) + steady_records(15.0, 30.0)
        report = report_from(
            records, fault_start=10.0, fault_end=15.0, phase_start=0.0, phase_end=30.0
        )
        data = report.to_dict()
        assert data["recovered"] is True
        assert data["fault_start"] == 10.0
        assert data["lost_in_window"] == report.lost_in_window

    def test_render_mentions_window_and_verdict(self):
        report = report_from(
            steady_records(0.0, 10.0),
            fault_start=10.0, fault_end=15.0, phase_start=0.0, phase_end=30.0,
        )
        text = report.render()
        assert "never" in text
        assert "10.0s" in text
