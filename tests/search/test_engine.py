"""End-to-end capacity-search engine tests on small simulated units."""

import pytest

from repro.parallel.cache import ResultCache
from repro.parallel.executor import Executor
from repro.search.engine import REPORTED_PHASES, CapacitySearch
from repro.search.judge import SustainabilityJudge
from repro.search.report import CapacityReport
from repro.search.space import rate_space
from repro.trace.config import TraceConfig
from repro.trace.tracer import Tracer


def corda_search(**kwargs):
    """A cheap search: Corda OS saturates in single-digit rates."""
    defaults = dict(system="corda_os", iel="DoNothing",
                    space=rate_space(1, 16, 1), scale=0.05, seed=81)
    defaults.update(kwargs)
    return CapacitySearch(**defaults)


class TestSearchRuns:
    def test_bisection_finds_a_bracketed_knee(self):
        report = corda_search().run()
        assert report.found
        assert report.knee_rate in rate_space(1, 16, 1).rate.grid()
        assert report.knee_aggregate_rate == report.knee_rate * 4
        assert report.mtps is not None and report.mtps.mean > 0
        # The knee is bracketed: some probe above it was unsustainable.
        assert any(not probe.sustainable for probe in report.probes)
        assert all(probe.cached is False for probe in report.probes)

    def test_probe_sequence_is_strategy_shaped(self):
        report = corda_search().run()
        rates = [probe.rate_limit for probe in report.probes]
        # Exponential ramp prefix: doubles from the domain's low end.
        assert rates[:2] == [1, 2]
        assert len(rates) == len(set(rates))

    def test_deterministic_same_seed_same_report(self):
        first = corda_search().run().to_dict()
        second = corda_search().run().to_dict()
        assert first == second

    def test_executor_and_serial_paths_agree(self):
        serial = corda_search().run()
        fanned = corda_search().run(executor=Executor(jobs=2))
        assert serial.to_dict() == fanned.to_dict()

    def test_grid_oracle_matches_bisection_with_more_probes(self):
        bisect = corda_search(strategy="bisect").run()
        grid = corda_search(strategy="grid").run()
        assert bisect.found and grid.found
        # Acceptance criterion: within one rate step, <= half the probes.
        assert abs(bisect.knee_rate - grid.knee_rate) <= 1
        assert bisect.probe_count <= grid.probe_count // 2
        assert grid.probe_count == 16

    def test_report_roundtrip_and_render(self):
        report = corda_search().run()
        assert CapacityReport.from_dict(report.to_dict()) == report
        rendered = report.render()
        assert "knee" in rendered.lower()
        assert "corda_os" in rendered
        assert str(report.knee_aggregate_rate) in rendered

    def test_trace_spans_one_per_probe(self):
        tracer = Tracer(TraceConfig())
        report = corda_search().run(tracer=tracer)
        spans = [span for span in tracer.spans if span.category == "search"]
        assert len(spans) == report.probe_count
        assert all(span.name == "probe" for span in spans)

    def test_progress_lines_emitted(self):
        lines = []
        corda_search().run(progress=lines.append)
        assert lines and all("probe" in line for line in lines)


class TestNoSustainablePoint:
    def test_impossible_judge_reports_not_found(self):
        # A zero-SLO judge fails every probe: the engine must report a
        # clean "nothing sustainable" rather than crash.
        search = corda_search(judge=SustainabilityJudge(slo_latency=1e-9))
        report = search.run()
        assert not report.found
        assert report.knee_rate is None
        assert report.mtps is None
        assert report.probe_count == 1  # first probe saturates; no bracket
        assert "no sustainable operating point" in report.verdict()


class TestConfigShaping:
    def test_phase_truncation_keeps_history_prefix(self):
        search = CapacitySearch(system="fabric", iel="BankingApp",
                                space=rate_space(25, 400, 25))
        config = search.build_config(100)
        # SendPayment is judged; CreateAccount history stays, Balance goes.
        assert config.phase_sequence == ("CreateAccount", "SendPayment")

    def test_default_phase_is_the_reported_one(self):
        assert REPORTED_PHASES["KeyValue"] == "Set"
        search = CapacitySearch(system="fabric", iel="KeyValue",
                                space=rate_space(25, 400, 25))
        assert search.phase == "Set"

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="not part of"):
            CapacitySearch(system="fabric", iel="KeyValue",
                           space=rate_space(25, 400, 25), phase="Transfer")

    def test_unknown_strategy_rejected_at_construction(self):
        with pytest.raises(KeyError):
            corda_search(strategy="annealing")

    def test_check_with_executor_rejected(self, tmp_path):
        # A checked probe must not ride the result cache: fingerprints
        # do not cover checking, so a checked result could be served to
        # an unchecked run.
        with pytest.raises(ValueError, match="cache") as excinfo:
            Executor(check_level="basic", cache=ResultCache(tmp_path))
        assert "\n" not in str(excinfo.value)

    def test_checked_search_collects_invariants(self):
        search = corda_search()
        report = search.run(executor=Executor(check_level="basic"))
        assert report.found
        assert len(search.last_invariants) == report.probe_count
        assert all(not inv.violations for inv in search.last_invariants)

    def test_checked_search_over_a_pool_matches_in_process(self):
        serial, pooled = corda_search(), corda_search()
        serial_report = serial.run(executor=Executor(check_level="basic"))
        pooled_report = pooled.run(executor=Executor(jobs=2, check_level="basic"))
        assert pooled_report.to_dict() == serial_report.to_dict()
        assert [inv.ok for inv in pooled.last_invariants] == [
            inv.ok for inv in serial.last_invariants
        ]
        assert [inv.to_dict() for inv in pooled.last_invariants] == [
            inv.to_dict() for inv in serial.last_invariants
        ]
