"""Seed-equivalence pins for the hot-path optimizations.

Every scenario re-runs against the live code and must match its golden
byte for byte — results, metrics snapshot and trace digest. A failure
here means some "optimization" changed observable behaviour. See
``equivalence.py`` for golden provenance; regenerate deliberately with
``scripts/capture_perf_goldens.py`` only for an *audited* semantic
change.
"""

import json
import pathlib

import pytest

from tests.perf.equivalence import CASES, canonical_json, run_case

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_fixed_seed_run_matches_golden(case):
    golden = json.loads((GOLDEN_DIR / f"{case['name']}.json").read_text())
    fresh = run_case(case)
    # Compare piecewise first so a mismatch names the diverging layer.
    for run_kind in ("plain", "instrumented"):
        for key, want in golden[run_kind].items():
            got = fresh[run_kind][key]
            assert canonical_json(got) == canonical_json(want), (
                f"{case['name']}: {run_kind}/{key} diverged from golden"
            )
    assert canonical_json(fresh) == canonical_json(golden)


def _golden_metrics(case):
    golden = json.loads((GOLDEN_DIR / f"{case['name']}.json").read_text())
    return golden["instrumented"]["metrics"]


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_every_pop_is_a_dispatch_or_a_skipped_tombstone(case):
    metrics = _golden_metrics(case)
    counters = metrics["counters"]
    dispatches = counters["sim/sim.dispatches"]["value"]
    skipped = counters.get("sim/sim.timers_cancelled", {"value": 0.0})["value"]
    assert dispatches + skipped == metrics["gauges"]["sim/sim.queue_depth"]["updates"]


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_histogram_percentiles_lie_within_observed_range(case):
    for key, histogram in _golden_metrics(case)["histograms"].items():
        for field in ("p50", "p99"):
            assert histogram["min"] <= histogram[field] <= histogram["max"], (
                f"{case['name']}: {key} {field}"
            )
