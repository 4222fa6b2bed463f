"""Tests of the end-to-end benchmark package (``pytest benchmarks/e2e``)."""

from __future__ import annotations

import copy
import gc
import json
import pathlib
import re
import signal
import time

import pytest

from benchmarks.e2e import check, child, layers, probe, run
from benchmarks.e2e.workloads import WORKLOADS, Unit
from repro.coconut.config import BenchmarkConfig

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][1].startswith("benchmarks/e2e/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(metric) for metric in layers.PER_LAYER
    ]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_builds_valid_configs(workload):
    units = WORKLOADS[workload]
    assert len({unit.name for unit in units}) == len(units)
    for unit in units:
        for seed in (None, 11):
            config = unit.build(seed)
            assert isinstance(config, BenchmarkConfig)
            assert config.seed == (unit.config["seed"] if seed is None else seed)
            assert config.repetitions == 1


def test_expected_outputs_cover_every_unit_at_its_default_seed():
    expected = run.load_expected()
    assert set(expected) == set(WORKLOADS)
    for workload, units in WORKLOADS.items():
        assert {unit.name: unit.config["seed"] for unit in units} == {
            name: entry["seed"] for name, entry in expected[workload].items()
        }


# ----------------------------------------------------------------------
# Layer attribution

PKG = "/x/src/repro"
RUN = (f"{PKG}/sim/kernel.py", 150, "run")
SEND = (f"{PKG}/net/network.py", 211, "send")
ROUTE = (f"{PKG}/net/network.py", 202, "_route_for")
KEY = (f"{PKG}/net/network.py", 300, "<lambda>")
HASH = (f"{PKG}/crypto/hashing.py", 61, "hash_bytes")
HEAPPOP = ("~", 0, "<built-in method _heapq.heappop>")
SHA = ("~", 0, "<built-in method _hashlib.openssl_sha256>")
SORTED = ("~", 0, "<built-in method builtins.sorted>")

#: pstats layout: func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)}).
STATS = {
    RUN: (1, 1, 2.0, 10.0, {}),
    HEAPPOP: (100, 100, 1.0, 1.0, {RUN: (100, 100, 1.0, 1.0)}),
    SEND: (50, 50, 3.0, 6.0, {RUN: (50, 50, 3.0, 6.0)}),
    ROUTE: (5, 5, 0.5, 0.5, {SEND: (5, 5, 0.5, 0.5)}),
    HASH: (20, 20, 0.5, 1.5, {SEND: (20, 20, 0.5, 1.5)}),
    SHA: (30, 30, 1.5, 1.5, {HASH: (20, 20, 1.0, 1.0), SEND: (10, 10, 0.5, 0.5)}),
    SORTED: (2, 2, 0.2, 0.4, {SEND: (2, 2, 0.2, 0.4)}),
    KEY: (8, 8, 0.2, 0.2, {SORTED: (8, 8, 0.2, 0.2)}),
}


def test_builtin_self_time_goes_to_the_callers_layer():
    summary = layers.summarize(STATS, PKG, counted={"net.sends": [SEND, ("~", 0, "absent")]})
    self_s = summary["self_s"]
    assert self_s["sim"] == pytest.approx(2.0 + 1.0)
    # SHA splits by per-caller time: 1.0 to crypto, 0.5 to net.
    assert self_s["crypto"] == pytest.approx(0.5 + 1.0)
    assert self_s["net"] == pytest.approx(3.0 + 0.5 + 0.5 + 0.2 + 0.2)
    assert self_s["other"] == 0.0
    assert summary["total_s"] == pytest.approx(sum(entry[2] for entry in STATS.values()))
    assert summary["counts"] == {"net.sends": 50}


def test_same_layer_calls_stay_out_of_calls_in():
    calls_in = layers.summarize(STATS, PKG)["calls_in"]
    # SEND from sim counts; ROUTE and KEY (through a builtin net
    # called) are net-to-net and do not.
    assert calls_in["net"] == 50
    assert calls_in["crypto"] == 20
    assert calls_in["sim"] == 0


def test_a_builtin_callers_layer_follows_call_counts_not_time():
    deliver = (f"{PKG}/net/network.py", 256, "_deliver")
    stats = {
        RUN: (1, 1, 0.1, 9.0, {}),
        SEND: (1, 1, 0.1, 8.0, {RUN: (1, 1, 0.1, 8.0)}),
        # Ten cheap calls from sim, one expensive call from net.
        SORTED: (11, 11, 7.0, 7.5, {RUN: (10, 10, 1.0, 1.2), SEND: (1, 1, 6.0, 6.3)}),
        deliver: (4, 4, 0.5, 0.5, {SORTED: (4, 4, 0.5, 0.5)}),
    }
    summary = layers.summarize(stats, PKG)
    assert summary["self_s"]["net"] == pytest.approx(0.1 + 6.0 + 0.5)
    # SORTED counts as sim for calls: its 4 calls into net are cross-layer.
    assert summary["calls_in"]["net"] == 1 + 4


def test_layer_of():
    assert layers.layer_of(f"{PKG}/stream/histogram.py", PKG) == "stream"
    assert layers.layer_of(f"{PKG}/cli.py", PKG) == layers.OTHER
    assert layers.layer_of(f"{PKG}/analysis/compare.py", PKG) == layers.OTHER
    assert layers.layer_of("/usr/lib/python3.11/heapq.py", PKG) is None
    assert layers.layer_of("/x/benchmarks/e2e/child.py", PKG) is None


# ----------------------------------------------------------------------
# Output check

PHASE = {
    "expected": 100, "received": 90, "failed": 4, "invalidated": 2,
    "tps": 45.0, "duration": 2.0, "mean_fls": 0.5,
    "p50_fls": 0.4, "p95_fls": 0.9, "p99_fls": 1.2,
}
EXPECTED = {"seed": 3, "outputs": {"phases": {"Set": PHASE}}}


def _unit(seed=3, **changes):
    outputs = copy.deepcopy(EXPECTED["outputs"])
    outputs["phases"]["Set"].update(changes)
    return {"unit": "fabric", "seed": seed, "error": None, "outputs": outputs}


def test_output_check_accepts_identical_and_two_percent_percentile_moves():
    assert check.unit_problems(_unit(), EXPECTED, None) == []
    moved = _unit(p50_fls=0.4 * 1.02, p95_fls=0.9 * 0.98, p99_fls=1.2 * 1.02)
    assert check.unit_problems(moved, EXPECTED, None) == []


@pytest.mark.parametrize("change", [
    {"received": 91}, {"failed": 3}, {"invalidated": 1}, {"expected": 101},
    {"p95_fls": 0.9 * 1.04}, {"mean_fls": 0.5 * (1 + 1e-7)}, {"tps": 45.1},
])
def test_output_check_rejects_changed_outputs(change):
    assert check.unit_problems(_unit(**change), EXPECTED, None)


def test_other_seeds_check_identities_and_agreement_only():
    assert check.unit_problems(_unit(seed=4, received=50), EXPECTED, None) == []
    assert check.unit_problems(_unit(seed=4, received=97), EXPECTED, None)
    assert check.unit_problems(_unit(seed=4, invalidated=91), EXPECTED, None)
    reference = _unit(seed=4)["outputs"]
    assert check.unit_problems(_unit(seed=4), EXPECTED, reference) == []
    assert check.unit_problems(_unit(seed=4, received=89), EXPECTED, reference)


def test_violations_and_errors_fail_a_unit():
    violated = _unit()
    violated["outputs"]["violations"] = 2
    assert check.unit_problems(violated, None, None)
    raised = {"unit": "fabric", "seed": 3, "error": "ValueError: boom"}
    assert check.unit_problems(raised, EXPECTED, None) == ["raised ValueError: boom"]
    attempted, failed, problems = check.judge(
        [{"workload": "w", "units": [_unit(), raised]}], {"fabric": EXPECTED}
    )
    assert (attempted, failed, len(problems)) == (2, 1, 1)


def test_agreement_is_checked_across_judge_calls():
    references: dict = {}
    first = {"workload": "w", "units": [_unit(seed=4)]}
    other = {"workload": "w", "units": [_unit(seed=4, received=89)]}
    assert check.judge([first], {}, references)[1] == 0
    assert check.judge([other], {}, references)[1] == 1


# ----------------------------------------------------------------------
# Child entry point


def test_tiny_unit_through_the_child_returns_every_metric(monkeypatch):
    tiny = (Unit("fabric", dict(system="fabric", iel="KeyValue", rate_limit=10,
                                scale=0.01, seed=1), checked=True),)
    monkeypatch.setitem(child.WORKLOADS, "tiny", tiny)
    sampler = probe.Probe()
    sampler.start()
    try:
        untraced = child.measure("tiny", sampler=sampler)
    finally:
        sampler.stop()
    profiled = child.measure("tiny", profile=True)
    assert untraced["probes"] > 0
    assert untraced["ref_cpu_s"] != untraced["cpu_s"]
    for document in (untraced, profiled):
        json.dumps(document)
        assert [unit["error"] for unit in document["units"]] == [None]
    values = run.end_to_end_values([untraced])
    assert list(values) == [name for name, __ in run.END_TO_END]
    assert all(value > 0 for value in values.values())
    assert check.judge([untraced, profiled], {}) == (2, 0, [])
    metrics = layers.per_layer_metrics(profiled, [untraced])
    assert list(metrics) == [name for name, __, __ in layers.PER_LAYER]
    assert metrics["sim.events_scheduled"] > 0
    assert metrics["storage.appends"] > 0
    assert metrics["invariants.checks"] > 0
    assert metrics["trace.records"] > 0
    assert metrics["chains.fabric.cpu_share"] == 1.0
    assert sum(metrics[f"{layer}.self_share"] for layer in layers.LAYERS) <= 1.0


# ----------------------------------------------------------------------
# Host-speed probe


def _burn(cpu_seconds):
    end = time.thread_time() + cpu_seconds
    while time.thread_time() < end:
        pass


@pytest.mark.parametrize("enabled", [True, False])
def test_probe_samples_until_stopped_and_leaves_the_process_as_it_was(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    sampler = probe.Probe()
    try:
        sampler.start()
        _burn(10 * probe.INTERVAL_S)
    finally:
        sampler.stop()
        assert gc.isenabled() is enabled
        (gc.enable if was else gc.disable)()
    taken = len(sampler.samples)
    assert taken >= 3 and all(seconds > 0 for __, seconds in sampler.samples)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    _burn(3 * probe.INTERVAL_S)
    assert len(sampler.samples) == taken


def test_rescale_cancels_a_slow_host_and_nets_out_the_probes():
    quiet, slow = probe.Probe(), probe.Probe()
    quiet.samples = [(0.5, probe.NOMINAL_S), (1.5, probe.NOMINAL_S), (9.0, 1.0)]
    # Twice as slow: the same work takes twice the CPU time, probes too.
    slow.samples = [(1.0, 2 * probe.NOMINAL_S), (3.0, 2 * probe.NOMINAL_S)]
    net = 2.0 - 2 * probe.NOMINAL_S
    assert quiet.rescale(0.0, 2.0) == pytest.approx(net)
    assert slow.rescale(0.0, 4.0) == pytest.approx(net)
    # A window without a probe is returned as measured.
    assert quiet.rescale(2.0, 3.0) == pytest.approx(1.0)
    # One far slower probe is netted out but does not set the speed.
    spiked = probe.Probe()
    spiked.samples = [(0.5, probe.NOMINAL_S), (1.0, probe.NOMINAL_S), (1.5, 0.1)]
    assert spiked.rescale(0.0, 2.0) == pytest.approx(2.0 - 2 * probe.NOMINAL_S - 0.1)


# ----------------------------------------------------------------------
# Compare


_summary = run.summarize


def test_verdicts():
    base = _summary([10.0, 10.1, 10.2, 10.3, 10.4])
    assert run.verdict(base, _summary([10.1, 10.2, 10.3]), 0.1) == "unchanged"
    assert run.verdict(base, _summary([11.5, 11.6, 11.7]), 0.1) == "worse"
    assert run.verdict(base, _summary([8.5, 8.6, 8.7]), 0.1) == "better"
    assert run.verdict(base, _summary([8.5, 8.6, 8.7]), 0.1, better="higher") == "worse"


def test_wide_base_spread_is_unresolved_unless_the_sides_separate():
    noisy = _summary([8.0, 9.0, 10.0, 11.0, 12.0])
    assert run.verdict(noisy, _summary([11.0, 12.0, 13.0]), 0.1) == "unresolved"
    assert run.verdict(noisy, _summary([12.5, 13.0, 14.0]), 0.1) == "worse"
    assert run.verdict(noisy, _summary([7.0, 7.5, 7.9]), 0.1) == "better"


def test_any_increase_of_the_failed_share_is_worse():
    clean = _summary([0.0, 0.0, 0.0])
    assert run.verdict(clean, _summary([0.0, 0.0, 0.0]), 0.0) == "unchanged"
    assert run.verdict(clean, _summary([0.0, 0.0, 1.0 / 7]), 0.0) == "worse"
    assert run.verdict(_summary([0.0, 1.0]), clean, 0.0) == "better"
