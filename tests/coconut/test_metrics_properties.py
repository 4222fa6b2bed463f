"""Property tests: the metric formulas against a brute-force reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coconut.client import PayloadRecord
from tests.coconut.test_metrics import phase_metrics

# Random client record sets: (start, latency-or-None) pairs.
record_sets = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=300.0),
        st.one_of(st.none(), st.floats(min_value=0.001, max_value=200.0)),
    ),
    min_size=0,
    max_size=60,
)


def build_clients(spec_lists):
    clients = []
    for specs in spec_lists:
        records = []
        for index, (start, latency) in enumerate(specs):
            if latency is None:
                records.append(PayloadRecord(f"p{id(specs)}-{index}", "Set", start))
            else:
                records.append(
                    PayloadRecord(
                        f"p{id(specs)}-{index}", "Set", start,
                        end_time=start + latency, status="received",
                    )
                )
        clients.append(records)
    return clients


class TestFormulasAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(record_sets, min_size=1, max_size=4))
    def test_formulas_match_brute_force(self, spec_lists):
        clients = build_clients(spec_lists)
        metrics = phase_metrics(clients)

        # Brute-force reference straight from Section 4.5.
        all_specs = [spec for specs in spec_lists for spec in specs]
        received = [(s, s + l) for s, l in all_specs if l is not None]
        assert metrics.expected == len(all_specs)
        assert metrics.received == len(received)
        if not received:
            assert metrics.tps == 0.0
            assert metrics.duration == 0.0
            return
        t_fstx = min(start for start, __ in all_specs)
        t_lrtx = max(end for __, end in received)
        duration = t_lrtx - t_fstx
        assert metrics.duration == pytest.approx(duration)
        if duration > 0:
            assert metrics.tps == pytest.approx(len(received) / duration)
        mean_fls = sum(end - start for start, end in received) / len(received)
        assert metrics.mean_fls == pytest.approx(mean_fls)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(record_sets, min_size=1, max_size=3), st.floats(min_value=1.0, max_value=100.0))
    def test_time_shift_invariance(self, spec_lists, shift):
        # MTPS/MFLS/Duration depend only on differences, never on the
        # absolute clock (the stabilization offset must not matter).
        base = phase_metrics(build_clients(spec_lists))
        shifted_lists = [
            [(start + shift, latency) for start, latency in specs] for specs in spec_lists
        ]
        shifted = phase_metrics(build_clients(shifted_lists))
        assert shifted.tps == pytest.approx(base.tps)
        assert shifted.mean_fls == pytest.approx(base.mean_fls)
        assert shifted.duration == pytest.approx(base.duration)


class TestScaleInvariance:
    def test_rate_metrics_stable_across_window_scale(self):
        # The core claim behind running scaled windows (README): MTPS and
        # MFLS are rate-based and stable across the window length for a
        # system in steady state.
        from repro.coconut import BenchmarkConfig, BenchmarkRunner

        def measure(scale):
            config = BenchmarkConfig(
                system="fabric", iel="DoNothing", rate_limit=100,
                scale=scale, repetitions=1, seed=31,
            )
            phase = BenchmarkRunner().run(config).phase("DoNothing")
            return phase.mtps.mean, phase.mfls.mean

        small_tps, small_fls = measure(0.02)
        large_tps, large_fls = measure(0.08)
        assert small_tps == pytest.approx(large_tps, rel=0.1)
        assert small_fls == pytest.approx(large_fls, rel=0.25)
