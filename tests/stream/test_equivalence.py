"""Accumulators vs. retained records: the measurement's acceptance bar.

Every run is measured through :mod:`repro.stream`, so its outcome is
checked against a brute-force pass over every payload record of the
same run, retained through a :class:`~repro.stream.RetainingSink`:

* expected/received/failed/invalidated NoT, t_fstx, t_lrtx, duration
  and TPS **exactly equal** (sums and min/max are order-insensitive);
* MFLS equal up to the last float ulps (the accumulated sum is the
  *correctly rounded* mean via a Shewchuk exact sum; a naive
  left-to-right sum over the sorted list can round differently in its
  final bits, bounded here at 1e-12 relative);
* p50/p95/p99 within one histogram bucket (~2.6% relative) of the
  nearest-rank values of the sorted latencies;
* resilience reports under fault plans **identical** to the counts and
  timeline the records give;
* parallel fan-out of units byte-identical to serial.
"""

import math

import pytest

from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.faults import FaultPlan
from repro.parallel import Executor
from repro.stream import BASE, RESOLUTION, PhaseAccumulator, RetainingSink
from repro.workloads import AccessSpec, ArrivalSpec, PhaseOverride, WorkloadSpec

#: One bucket's relative span: the documented percentile error bound.
BUCKET_WIDTH = BASE ** (1.0 / RESOLUTION)

#: Per-client rates well under each system's knee at the test scale, so
#: runs are cheap but still confirm a few hundred transactions.
RATES = {
    "fabric": 20,
    "quorum": 10,
    "bitshares": 20,
    "sawtooth": 4,
    "diem": 10,
    "corda_os": 4,
    "corda_enterprise": 4,
}

ALL_SYSTEMS = sorted(RATES)


def run_pair(system, iel="KeyValue", scale=0.02, seed=3, keep_last_rig=False, **kwargs):
    """One unit's result, every payload record it produced, and its runner."""
    config = BenchmarkConfig(
        system=system, iel=iel, rate_limit=RATES[system], scale=scale,
        repetitions=1, seed=seed, **kwargs,
    )
    sink = RetainingSink()
    runner = BenchmarkRunner(keep_last_rig=keep_last_rig, spill=sink)
    return runner.run(config), sink.records, runner


def nearest_rank(ordered, q):
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def assert_equivalent(result, records):
    offered = {record.payload_id for record in records}
    assert len(offered) == len(records), "a record reached the sink twice"
    confirmed_any = False
    for phase, phase_result in result.phases.items():
        (s,) = phase_result.repetitions
        context = f"{result.label} {phase}"
        mine = [r for r in records if r.phase == phase]
        received = [r for r in mine if r.received]
        assert s.expected == len(mine), context
        assert s.received == len(received), context
        assert s.failed == sum(1 for r in mine if r.status == "failed"), context
        assert s.invalidated == sum(1 for r in received if r.invalid), context
        latencies = sorted(r.latency for r in received)
        assert s.latency_histogram is not None, context
        assert s.latency_histogram["total"] == s.received, context
        if not received:
            assert (s.tps, s.duration, s.mean_fls) == (0.0, 0.0, 0.0), context
            continue
        confirmed_any = True
        t_fstx = min(r.start_time for r in mine)
        t_lrtx = max(r.end_time for r in received)
        assert s.t_first_send == t_fstx, context
        assert s.t_last_receive == t_lrtx, context
        assert s.duration == t_lrtx - t_fstx, context
        assert s.tps == len(received) / (t_lrtx - t_fstx), context
        mean = sum(latencies) / len(latencies)
        assert s.mean_fls == pytest.approx(mean, rel=1e-12, abs=1e-12), context
        for q, value in ((50, s.p50_fls), (95, s.p95_fls), (99, s.p99_fls)):
            exact = nearest_rank(latencies, q)
            assert exact / BUCKET_WIDTH <= value <= exact * BUCKET_WIDTH, (
                f"{context}: p{q} {value} vs nearest rank {exact}"
            )
    assert confirmed_any, f"{result.label}: nothing confirmed; test proves nothing"


class TestAllSystems:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_keyvalue_equivalent(self, system):
        result, records, runner = run_pair(system)
        assert_equivalent(result, records)
        # The bounded-memory observable: in-flight records, not offered
        # load. A slow system at this tiny scale may legitimately hold
        # every payload in flight, so the hard bound is the per-client
        # offered load; systems that confirm within the send window must
        # stay strictly under it.
        peak = runner.last_stream_peak
        expected_per_client = result.phases[next(iter(result.phases))].repetitions[0].expected // 4
        assert 0 < peak <= expected_per_client
        if system in ("fabric", "quorum"):
            assert peak < expected_per_client // 2


class TestRepresentativeWorkloads:
    def test_fabric_zipfian_rmw(self):
        # Contended read-modify-writes: the invalidated counter is live.
        workload = WorkloadSpec(
            name="zipf-rmw",
            access=AccessSpec(kind="zipfian", theta=0.99, key_space=200, shared=True),
            phases=(("Set", PhaseOverride(mix=(("Rmw", 1.0),))),),
        )
        result, records, __ = run_pair(
            "fabric", workload=workload, phases=("Set",), seed=2330
        )
        assert_equivalent(result, records)
        set_metrics = result.phases["Set"].repetitions[0]
        assert set_metrics.invalidated > 0  # the workload did contend

    def test_quorum_burst_arrival(self):
        workload = WorkloadSpec(
            name="burst",
            arrival=ArrivalSpec(kind="burst", on_s=1.0, off_s=1.0),
        )
        assert_equivalent(*run_pair("quorum", workload=workload, seed=2330)[:2])

    def test_multi_phase_banking_unit(self):
        assert_equivalent(*run_pair("quorum", iel="BankingApp", seed=5)[:2])


def resilience_from_records(records, report):
    """Window counts, baseline and timeline of ``report``'s window,
    recomputed from the phase's records."""
    start, end = report.fault_start, report.fault_end
    width = report.bucket_width
    counts = [0] * len(report.timeline)
    sent = lost = committed = before = 0
    for record in records:
        if start <= record.start_time <= end:
            sent += 1
            lost += not record.received
        if not record.received:
            continue
        committed += start <= record.end_time <= end
        before += record.end_time < start
        index = int((record.end_time - report.timeline_start) / width)
        if 0 <= index < len(counts):
            counts[index] += 1
    baseline_window = start - report.timeline_start
    return dict(
        sent_in_window=sent, lost_in_window=lost, committed_in_window=committed,
        baseline_tps=before / baseline_window if baseline_window > 0 else 0.0,
        timeline=[count / width for count in counts],
    )


class TestUnderFaults:
    @pytest.mark.parametrize("system", ("fabric", "quorum"))
    def test_resilience_reports_byte_identical(self, system):
        plan = FaultPlan().kill_leader(at=0.5).restart("leader", at=1.5)
        result, records, runner = run_pair(
            system, iel="DoNothing", fault_plan=plan, seed=7, keep_last_rig=True
        )
        assert_equivalent(result, records)
        reported = 0
        for phase, phase_result in result.phases.items():
            # The clients' merged accumulator gives the full report,
            # timeline included; the phase metrics carry its scalars.
            merged = PhaseAccumulator.merged(
                [client.stream.accumulator(phase) for client in runner.last_rig.clients],
                phase,
            )
            if merged.resilience is None:
                assert phase_result.resilience_report() is None, phase
                continue
            report = merged.resilience.report()
            want = resilience_from_records([r for r in records if r.phase == phase], report)
            got = {key: getattr(report, key) for key in want}
            assert got == want, phase
            (metrics,) = phase_result.repetitions
            assert metrics.resilience == report.to_dict()
            reported += 1
        assert reported  # the fault run did produce reports


class TestParallelMerge:
    def test_jobs2_matches_serial(self):
        configs = [
            BenchmarkConfig(system=system, iel="DoNothing", rate_limit=RATES[system],
                            scale=0.02, repetitions=1, seed=11)
            for system in ("fabric", "quorum", "bitshares")
        ]
        serial = [o.result.to_dict() for o in Executor().run_units(configs)]
        parallel = [o.result.to_dict() for o in Executor(jobs=2).run_units(configs)]
        assert parallel == serial
        # Latency histograms round-trip the worker boundary intact.
        for unit in serial:
            assert any(
                "latency_histogram" in rep
                for phase in unit["phases"].values()
                for rep in phase["repetitions"]
            )


class TestDeterminism:
    def test_streamed_run_repeats_byte_identical(self):
        first = run_pair("fabric")[0]
        second = run_pair("fabric")[0]
        assert first.to_dict() == second.to_dict()
