"""Tests for the unit-fingerprint scheme."""

import pathlib
import shutil

import pytest

import repro
from repro.coconut.config import BenchmarkConfig
from repro.faults import FaultPlan
from repro.net.latency import EUROPEAN_WAN_LATENCY
from repro.parallel import config_payload, unit_fingerprint
from repro.parallel.fingerprint import code_digest


def config(**overrides):
    kwargs = dict(system="fabric", iel="DoNothing", rate_limit=50, scale=0.1,
                  repetitions=1, seed=7)
    kwargs.update(overrides)
    return BenchmarkConfig(**kwargs)


class TestStability:
    def test_equal_configs_equal_fingerprints(self):
        assert unit_fingerprint(config()) == unit_fingerprint(config())

    def test_param_insertion_order_is_irrelevant(self):
        forward = config(system="quorum",
                         params={"istanbul.blockperiod": 5.0, "extra": 1})
        backward = config(system="quorum",
                          params={"extra": 1, "istanbul.blockperiod": 5.0})
        assert unit_fingerprint(forward) == unit_fingerprint(backward)

    def test_payload_covers_every_config_field(self):
        import dataclasses

        payload = config_payload(config())
        assert set(payload) == {f.name for f in dataclasses.fields(BenchmarkConfig)}


class TestSensitivity:
    def test_result_determining_fields_change_the_fingerprint(self):
        base = unit_fingerprint(config())
        assert unit_fingerprint(config(seed=8)) != base
        assert unit_fingerprint(config(scale=0.2)) != base
        assert unit_fingerprint(config(repetitions=2)) != base
        assert unit_fingerprint(config(rate_limit=51)) != base
        assert unit_fingerprint(config(system="quorum")) != base

    def test_latency_model_is_part_of_the_fingerprint(self):
        assert unit_fingerprint(config(latency=EUROPEAN_WAN_LATENCY)) != unit_fingerprint(
            config()
        )

    def test_fault_plan_is_part_of_the_fingerprint(self):
        plan = FaultPlan().kill_leader(at=1.0).restart("leader", at=2.0)
        assert unit_fingerprint(config(fault_plan=plan)) != unit_fingerprint(config())

    def test_code_version_marker_invalidates(self):
        assert unit_fingerprint(config(), code_version="a") != unit_fingerprint(
            config(), code_version="b"
        )


class TestCodeMarker:
    """The default code marker is the digest of the package's source."""

    @pytest.fixture
    def package_copy(self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(
            pathlib.Path(repro.__file__).parent, copy,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        return copy

    def test_unchanged_copy_gives_the_same_fingerprint(self, package_copy):
        assert unit_fingerprint(config()) == unit_fingerprint(
            config(), code_version=code_digest(package_copy)
        )

    def test_one_changed_byte_gives_another_fingerprint(self, package_copy):
        module = package_copy / "sim" / "kernel.py"
        source = bytearray(module.read_bytes())
        source[0] ^= 1
        module.write_bytes(bytes(source))
        assert unit_fingerprint(config()) != unit_fingerprint(
            config(), code_version=code_digest(package_copy)
        )
