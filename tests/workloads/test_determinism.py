"""Workload determinism and legacy-generator equivalence.

The subsystem's two core guarantees:

* the default spec reproduces the pre-workloads generator exactly — the
  verbatim copy of the old ``WorkloadPlan`` below is the frozen
  reference, so any drift in the legacy path fails here;
* non-default specs are deterministic: one seed produces one payload
  stream, across runs and across ``--jobs N`` process layouts.
"""

import typing

from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.coconut.workload import WorkloadPlan
from repro.parallel import Executor
from repro.sim.rng import RngRegistry
from repro.workloads import AccessSpec, ArrivalSpec, WorkloadSpec


class LegacyWorkloadPlan:
    """The pre-workloads generator, copied verbatim as the reference."""

    def __init__(self, client_id: str, threads: int) -> None:
        self.client_id = client_id
        self.threads = threads
        self._counters: typing.Dict[typing.Tuple[int, str], int] = {}

    def _next_index(self, thread: int, phase: str) -> int:
        key = (thread, phase)
        self._counters[key] = self._counters.get(key, 0) + 1
        return self._counters[key]

    def _key(self, thread: int, index: int) -> str:
        return f"{self.client_id}:t{thread}:k{index}"

    def _account(self, thread: int, index: int) -> str:
        return f"{self.client_id}:t{thread}:a{index}"

    def args_for(self, iel: str, phase: str, thread: int) -> typing.Dict[str, object]:
        index = self._next_index(thread, phase)
        if iel == "DoNothing":
            return {}
        if iel == "KeyValue":
            if phase == "Set":
                return {"key": self._key(thread, index), "value": f"value-{index}"}
            if phase == "Get":
                return {"key": self._key(thread, index)}
        if iel == "BankingApp":
            if phase == "CreateAccount":
                return {
                    "account": self._account(thread, index),
                    "checking": 1_000,
                    "saving": 500,
                }
            if phase == "SendPayment":
                return {
                    "source": self._account(thread, index),
                    "destination": self._account(thread, index + 1),
                    "amount": 1,
                }
            if phase == "Balance":
                return {"account": self._account(thread, index)}
        raise KeyError(f"no workload for IEL {iel!r} phase {phase!r}")


UNITS = {
    "DoNothing": ("DoNothing",),
    "KeyValue": ("Set", "Get"),
    "BankingApp": ("CreateAccount", "SendPayment", "Balance"),
}


class TestLegacyEquivalence:
    def test_default_spec_streams_match_old_generator(self):
        for iel, phases in UNITS.items():
            new = WorkloadPlan("client-0", threads=4, spec=WorkloadSpec())
            old = LegacyWorkloadPlan("client-0", threads=4)
            for phase in phases:
                for __ in range(25):
                    for thread in range(4):
                        function, pairs = new.payload_for(iel, phase, thread)
                        assert function == phase
                        # The plan yields the canonical pairs Payload.args
                        # stores: the old dict's items, sorted by name.
                        expected = old.args_for(iel, phase, thread)
                        assert pairs == tuple(sorted(expected.items()))

    def test_default_spec_never_creates_rng_streams(self):
        streams: typing.List[str] = []

        def factory(name):
            streams.append(name)
            return RngRegistry(0).stream(name)

        plan = WorkloadPlan("client-0", threads=2, spec=None, rng_streams=factory)
        for phase in ("Set", "Get"):
            for __ in range(10):
                plan.payload_for("KeyValue", phase, 0)
        assert streams == []

    def test_default_spec_unit_matches_none_workload(self):
        # workload=WorkloadSpec() and workload=None must be one run:
        # same label, same metrics, byte for byte.
        results = []
        for workload in (None, WorkloadSpec()):
            config = BenchmarkConfig(
                system="quorum", iel="DoNothing", rate_limit=20,
                scale=0.01, workload=workload, seed=5,
            )
            results.append(BenchmarkRunner(keep_last_rig=False).run(config).to_dict())
        assert results[0] == results[1]


def _zipfian_spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="det-check",
        arrival=ArrivalSpec(kind="poisson"),
        access=AccessSpec(kind="zipfian", theta=0.9, key_space=50, shared=True),
        mix=(("Get", 1.0), ("Rmw", 3.0)),
    )


def _config(seed: int = 7) -> BenchmarkConfig:
    return BenchmarkConfig(
        system="quorum", iel="KeyValue", rate_limit=20,
        phases=("Set",), scale=0.01, workload=_zipfian_spec(), seed=seed,
    )


class TestSpecDeterminism:
    def test_same_seed_same_result(self):
        first = BenchmarkRunner(keep_last_rig=False).run(_config()).to_dict()
        second = BenchmarkRunner(keep_last_rig=False).run(_config()).to_dict()
        assert first == second

    def test_different_seed_different_payload_stream(self):
        registry_a, registry_b = RngRegistry(1), RngRegistry(2)
        plan_a = WorkloadPlan("c", 1, spec=_zipfian_spec(), rng_streams=registry_a.stream)
        plan_b = WorkloadPlan("c", 1, spec=_zipfian_spec(), rng_streams=registry_b.stream)
        stream_a = [plan_a.payload_for("KeyValue", "Set", 0) for __ in range(40)]
        stream_b = [plan_b.payload_for("KeyValue", "Set", 0) for __ in range(40)]
        assert stream_a != stream_b

    def test_jobs2_matches_serial(self):
        configs = [_config(), _config(seed=8)]
        serial = [
            BenchmarkRunner(keep_last_rig=False).run(config).to_dict()
            for config in configs
        ]
        outcomes = Executor(jobs=2).run_units(configs)
        assert [o.result.to_dict() for o in outcomes] == serial

    def test_workload_rng_isolated_from_simulation_streams(self):
        # Two identical runs except for the workload spec must draw the
        # same values from every non-workload stream: adding a spec may
        # change what is sent, but not any other component's randomness.
        registry_plain, registry_spec = RngRegistry(3), RngRegistry(3)
        plain_first = registry_plain.stream("network:core").random()
        plan = WorkloadPlan(
            "c", 1, spec=_zipfian_spec(), rng_streams=registry_spec.stream
        )
        for __ in range(20):
            plan.payload_for("KeyValue", "Set", 0)
        assert registry_spec.stream("network:core").random() == plain_first
