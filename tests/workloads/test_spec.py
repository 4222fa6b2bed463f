"""WorkloadSpec construction, validation and (de)serialisation."""

import pytest

from repro.workloads import (
    DEFAULT_WORKLOAD,
    AccessSpec,
    ArrivalSpec,
    PhaseOverride,
    WorkloadSpec,
    normalize_mix,
)


class TestArrivalSpec:
    def test_default_is_constant(self):
        assert ArrivalSpec().kind == "constant"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="arrival kind"):
            ArrivalSpec(kind="lognormal")

    def test_burst_validation(self):
        with pytest.raises(ValueError, match="on_s"):
            ArrivalSpec(kind="burst", on_s=0.0)
        with pytest.raises(ValueError, match="factor"):
            ArrivalSpec(kind="burst", factor=-1.0)

    def test_burst_factor_defaults_to_rate_preserving(self):
        spec = ArrivalSpec(kind="burst", on_s=2.0, off_s=6.0)
        assert spec.burst_factor == 4.0
        assert ArrivalSpec(kind="burst", factor=3.0).burst_factor == 3.0

    def test_ramp_validation(self):
        with pytest.raises(ValueError, match="ramp factors"):
            ArrivalSpec(kind="ramp", start_factor=0.0)

    def test_replay_needs_sorted_times(self):
        with pytest.raises(ValueError, match="non-empty"):
            ArrivalSpec(kind="replay")
        with pytest.raises(ValueError, match="sorted"):
            ArrivalSpec(kind="replay", times=(2.0, 1.0))
        with pytest.raises(ValueError, match=">= 0"):
            ArrivalSpec(kind="replay", times=(-1.0,))


class TestAccessSpec:
    def test_default_is_disjoint(self):
        assert AccessSpec().kind == "disjoint"

    def test_theta_bounds(self):
        with pytest.raises(ValueError, match="theta"):
            AccessSpec(kind="zipfian", theta=1.0)
        with pytest.raises(ValueError, match="theta"):
            AccessSpec(kind="zipfian", theta=0.0)

    def test_hotspot_bounds(self):
        with pytest.raises(ValueError, match="hot_fraction"):
            AccessSpec(kind="hotspot", hot_fraction=1.0)
        with pytest.raises(ValueError, match="hot_prob"):
            AccessSpec(kind="hotspot", hot_prob=1.5)

    def test_key_space_bound(self):
        with pytest.raises(ValueError, match="key_space"):
            AccessSpec(kind="uniform", key_space=0)


class TestMix:
    def test_normalize_sorts_and_floats(self):
        assert normalize_mix({"Set": 1, "Get": 9}) == (("Get", 9.0), ("Set", 1.0))

    def test_empty_is_none(self):
        assert normalize_mix(None) is None
        assert normalize_mix({}) is None

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            normalize_mix({"Get": 0})
        with pytest.raises(ValueError, match="duplicate"):
            normalize_mix((("Get", 1.0), ("Get", 2.0)))


class TestWorkloadSpec:
    def test_default_spec_is_legacy(self):
        assert DEFAULT_WORKLOAD.is_default
        assert DEFAULT_WORKLOAD.short_label() == ""
        assert DEFAULT_WORKLOAD.to_dict() == {}

    def test_phase_override_resolution(self):
        spec = WorkloadSpec(
            access=AccessSpec(kind="uniform"),
            phases=(("Get", PhaseOverride(arrival=ArrivalSpec(kind="poisson"))),),
        )
        assert not spec.is_default
        resolved = spec.for_phase("Get")
        assert resolved.arrival.kind == "poisson"
        assert resolved.access.kind == "uniform"
        assert spec.for_phase("Set").arrival.kind == "constant"

    def test_duplicate_phase_overrides_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WorkloadSpec(
                phases=(("Set", PhaseOverride()), ("Set", PhaseOverride()))
            )

    def test_validate_for_unknown_phase(self):
        spec = WorkloadSpec(phases=(("Scan", PhaseOverride()),))
        with pytest.raises(ValueError, match="Scan"):
            spec.validate_for("KeyValue", ("Set", "Get"))

    def test_validate_for_unknown_operation(self):
        spec = WorkloadSpec(mix=(("Transfer", 1.0),))
        with pytest.raises(ValueError, match="Transfer"):
            spec.validate_for("KeyValue", ("Set", "Get"))

    def test_json_roundtrip(self):
        spec = WorkloadSpec(
            name="demo",
            arrival=ArrivalSpec(kind="burst", on_s=2.0, off_s=3.0),
            access=AccessSpec(kind="zipfian", theta=0.9, key_space=50, shared=True),
            mix=(("Get", 9.0), ("Set", 1.0)),
            phases=(("Get", PhaseOverride(arrival=ArrivalSpec(kind="poisson"))),),
        )
        assert WorkloadSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("text, message", [
        ('{"arrivals": {"kind": "poisson"}}', "unknown workload fields"),
        ('{"arrival": {"kind": "poisson", "rate": 3}}', "unknown arrival fields"),
        ('{"arrival": 5}', "arrival must be an object"),
        ('{"arrival": {"kind": "burst", "factor": "x"}}', "'factor' must be a number"),
        ('{"arrival": {"kind": "replay", "times": [{}]}}', "'times' must be a list of numbers"),
        ('{"access": [1]}', "access must be an object"),
        ('{"access": {"kind": "zipfian", "theta": "0.9"}}', "'theta' must be a number"),
        ('{"access": {"kind": "uniform", "key_space": 2.5}}', "'key_space' must be an integer"),
        ('{"mix": 5}', "a mix must map operations to weights"),
        ('{"phases": {"Set": 5}}', "phase override must be an object"),
    ], ids=[
        "unknown-workload-field", "unknown-arrival-field", "non-object-arrival",
        "non-numeric-factor", "non-numeric-times", "non-object-access",
        "non-numeric-theta", "fractional-key-space", "non-object-mix",
        "non-object-phase-override",
    ])
    def test_malformed_json_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            WorkloadSpec.from_json(text)

    def test_short_label_is_stable_and_distinct(self):
        a = WorkloadSpec(access=AccessSpec(kind="uniform"))
        b = WorkloadSpec(access=AccessSpec(kind="uniform", key_space=7))
        assert a.short_label() == a.short_label()
        assert a.short_label() != b.short_label()

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"access": {"kind": "uniform"}}')
        assert WorkloadSpec.from_json_file(str(path)).access.kind == "uniform"
