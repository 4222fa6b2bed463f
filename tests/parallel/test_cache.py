"""Tests for the content-addressed result cache."""

import json

from repro.coconut.metrics import PhaseMetrics
from repro.coconut.results import PhaseResult, UnitResult
from repro.faults.metrics import ResilienceReport
from repro.parallel import ResultCache


def make_result(label="fabric-DoNothing-rl200", resilience=None):
    metrics = PhaseMetrics(
        phase="DoNothing", repetition=0, expected=100, received=90, failed=0,
        t_first_send=1.0, t_last_receive=7.0, duration=6.0, tps=15.0, mean_fls=0.4,
        resilience=resilience,
    )
    return UnitResult(
        label=label, system="fabric", iel="DoNothing", aggregate_rate=200,
        params={}, scale=0.1,
        phases={"DoNothing": PhaseResult(phase="DoNothing", repetitions=[metrics])},
    )


def make_report():
    return ResilienceReport(
        fault_start=5.0, fault_end=10.0, bucket_width=1.0, timeline=[],
        timeline_start=0.0, baseline_tps=20.0, dip_tps=0.0, dip_depth=1.0,
        time_to_recover=2.0, sent_in_window=50, committed_in_window=40,
        lost_in_window=10,
    )


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("f" * 64, make_result())
        result = cache.get("f" * 64)
        assert result is not None
        assert result.to_dict() == make_result().to_dict()
        assert cache.hits == 1 and cache.misses == 0

    def test_resilience_reports_survive(self, tmp_path):
        # The reports ride on the phase metrics, so the unit alone
        # carries them through the cache.
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, make_result(resilience=make_report().to_dict()))
        report = cache.get("a" * 64).phase("DoNothing").resilience_report()
        assert report.recovered
        assert report.to_dict() == make_report().to_dict()

    def test_entries_with_a_separate_resilience_map_still_load(self, tmp_path):
        # Entries written when the cache also stored each unit's reports
        # beside it: the unit is read, the duplicate map ignored.
        cache = ResultCache(tmp_path)
        unit = make_result(resilience=make_report().to_dict())
        cache.path_for("9" * 64).write_text(json.dumps({
            "fingerprint": "9" * 64,
            "label": unit.label,
            "unit": unit.to_dict(),
            "resilience": {"DoNothing": make_report().to_dict()},
        }))
        assert cache.get("9" * 64).to_dict() == unit.to_dict()

    def test_entries_are_json_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("b" * 64, make_result())
        data = json.loads(path.read_text())
        assert data["fingerprint"] == "b" * 64
        assert data["label"] == "fabric-DoNothing-rl200"
        assert len(cache) == 1


class TestMisses:
    def test_absent_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("c" * 64).write_text("{not json")
        assert cache.get("c" * 64) is None

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        # An entry whose recorded fingerprint disagrees with its file
        # name (e.g. a hand-renamed file) must never be served.
        cache = ResultCache(tmp_path)
        path = cache.put("d" * 64, make_result())
        path.rename(cache.path_for("e" * 64))
        assert cache.get("e" * 64) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("1" * 64).write_text(json.dumps({"fingerprint": "1" * 64}))
        assert cache.get("1" * 64) is None

    def test_summary_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get("0" * 64)
        cache.put("f" * 64, make_result())
        cache.get("f" * 64)
        assert "1 hits" in cache.summary()
        assert "1 misses" in cache.summary()
