"""Unit tests for the repro.perf timing harness and baseline files."""

import pytest

from repro.perf import (
    TimingResult,
    check_baseline,
    load_baseline,
    time_callable,
    write_baseline,
)


class TestTimeCallable:
    def test_counts_calls(self):
        calls = []
        result = time_callable(lambda: calls.append(1), "t", repeats=3, warmup=2, loops=4)
        assert len(calls) == (2 + 3) * 4
        assert result.loops == 4
        assert len(result.samples) == 3

    def test_best_is_min_and_mean_is_mean(self):
        result = time_callable(lambda: None, "t", repeats=4)
        assert result.best == min(result.samples)
        assert result.mean == pytest.approx(sum(result.samples) / 4)
        assert result.best <= result.mean

    def test_name_defaults_to_callable_name(self):
        def workload():
            pass

        assert time_callable(workload, repeats=1).name == "workload"

    def test_validation(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            time_callable(lambda: None, loops=0)

    def test_zero_warmup_allowed(self):
        calls = []
        time_callable(lambda: calls.append(1), repeats=2, warmup=0)
        assert len(calls) == 2

    def test_gc_disabled_during_timing_and_restored(self):
        import gc

        assert gc.isenabled()
        observed = []
        time_callable(lambda: observed.append(gc.isenabled()), repeats=2, warmup=1)
        assert observed == [False, False, False]
        assert gc.isenabled()

    def test_gc_restored_when_callable_raises(self):
        import gc

        assert gc.isenabled()
        with pytest.raises(RuntimeError):
            time_callable(self._raise, repeats=1)
        assert gc.isenabled()

    def test_gc_left_disabled_if_it_was_disabled(self):
        import gc

        gc.disable()
        try:
            time_callable(lambda: None, repeats=1)
            assert not gc.isenabled()
        finally:
            gc.enable()

    @staticmethod
    def _raise():
        raise RuntimeError("boom")


class TestBaselineFiles:
    def _result(self, name, best):
        return TimingResult(name=name, best=best, mean=best, samples=(best,), loops=1)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        results = [self._result("a", 0.5), self._result("b", 1.5)]
        written = write_baseline(path, results, notes={"speedup": 2.0})
        loaded = load_baseline(path)
        assert loaded == written
        assert loaded["results"]["a"]["best"] == 0.5
        assert loaded["notes"] == {"speedup": 2.0}
        assert "python" in loaded["host"]

    def test_check_passes_within_threshold(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_baseline(path, [self._result("a", 0.1)])
        fresh = [self._result("a", 0.25)]
        assert check_baseline(load_baseline(path), fresh, threshold=3.0) == []

    def test_check_flags_regression(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_baseline(path, [self._result("a", 0.1)])
        fresh = [self._result("a", 0.5)]
        problems = check_baseline(load_baseline(path), fresh, threshold=3.0)
        assert len(problems) == 1
        assert "a" in problems[0]
        assert "3x" in problems[0]

    def test_check_flags_missing_target(self):
        problems = check_baseline({"results": {}}, [self._result("new", 0.1)])
        assert problems == ["new: not present in baseline"]

    def test_counts_round_trip_and_must_match_exactly(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_baseline(path, [self._result("a", 0.1)], counts={"a.hash_calls": 0})
        baseline = load_baseline(path)
        assert baseline["counts"] == {"a.hash_calls": 0}
        fresh = [self._result("a", 0.1)]
        assert check_baseline(baseline, fresh, counts={"a.hash_calls": 0}) == []
        assert check_baseline(baseline, fresh, counts={"a.hash_calls": 1}) == [
            "a.hash_calls: count 1 differs from baseline 0"
        ]
        assert check_baseline(baseline, fresh, counts={"b.hash_calls": 0}) == [
            "b.hash_calls: count 0 differs from baseline None"
        ]

    def test_check_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            check_baseline({"results": {}}, [], threshold=0.0)
