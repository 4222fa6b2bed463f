"""Cross-system integration tests through the full COCONUT stack."""

import pytest

from repro.coconut import BenchmarkConfig, BenchmarkRunner
from repro.coconut.provisioner import Provisioner
from repro.net.latency import EUROPEAN_WAN_LATENCY
from repro.stream import RetainingSink

BLOCK_SYSTEMS = ("bitshares", "fabric", "quorum", "sawtooth", "diem")
ALL_SYSTEMS = BLOCK_SYSTEMS + ("corda_os", "corda_enterprise")


def run_rig(system, iel="KeyValue", phase="Set", rate=50, scale=0.03, seed=2, **kwargs):
    """Run one phase on a fresh rig; also returns every payload record,
    retained by a sink the clients hand each record to once."""
    config = BenchmarkConfig(
        system=system, iel=iel, rate_limit=rate, scale=scale,
        repetitions=1, seed=seed, **kwargs,
    )
    rig = Provisioner().provision(config, 0)
    sink = RetainingSink()
    clock = rig.system.stabilization_time
    for client in rig.clients:
        client.stream.sink = sink
        client.run_phase(phase, clock)
    rig.sim.run(until=clock + config.scaled_total)
    for client in rig.clients:
        client.finish_phase(phase)
    return rig, config, sink.records


def received(records):
    """The records that got a timely confirmation."""
    return [record for record in records if record.received]


class TestChainSafety:
    @pytest.mark.parametrize("system", BLOCK_SYSTEMS)
    def test_all_replicas_converge_and_validate(self, system):
        rig, __, __ = run_rig(system)
        rig.system.validate_all_chains()
        heights = set(rig.system.total_chain_height().values())
        assert max(heights) >= 0  # something was committed

    @pytest.mark.parametrize("system", BLOCK_SYSTEMS)
    def test_committed_payloads_exist_on_chain(self, system):
        rig, __, records = run_rig(system)
        chain_payloads = set()
        node = rig.system.nodes[rig.system.node_ids[0]]
        for block in node.chain.blocks():
            for tx in block.transactions:
                for payload in tx.payloads:
                    chain_payloads.add(payload.payload_id)
        for record in received(records):
            assert record.payload_id in chain_payloads


class TestReceiptSanity:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_latencies_positive_and_within_window(self, system):
        rig, config, records = run_rig(system, rate=20)
        listen_deadline = rig.system.stabilization_time + config.scaled_listen
        got_any = False
        for record in received(records):
            got_any = True
            assert record.end_time > record.start_time
            assert record.end_time <= listen_deadline + 1e-9
        assert got_any, f"{system} confirmed nothing at trivial load"

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_every_payload_has_exactly_one_fate(self, system):
        rig, __, records = run_rig(system, rate=20)
        offered = sum(client.stream.accumulator("Set").sent for client in rig.clients)
        assert len({record.payload_id for record in records}) == offered
        assert len(records) == offered
        for record in records:
            assert record.status in ("received", "failed", "pending")
            if record.status == "pending":
                assert record.end_time is None
            else:
                assert record.end_time is not None


class TestMoneyConservation:
    @pytest.mark.parametrize("system", ("fabric", "quorum"))
    def test_banking_unit_conserves_money(self, system):
        config = BenchmarkConfig(
            system=system, iel="BankingApp", rate_limit=25, scale=0.05,
            repetitions=1, seed=4,
        )
        rig = Provisioner().provision(config, 0)
        clock = rig.system.stabilization_time
        for phase in ("CreateAccount", "SendPayment"):
            for client in rig.clients:
                client.run_phase(phase, clock)
            clock += config.scaled_total
            rig.sim.run(until=clock)
        from repro.iel.banking import CHECKING_PREFIX, SAVING_PREFIX

        node = rig.system.nodes[rig.system.node_ids[0]]
        total = sum(
            node.state.get(key) or 0
            for key in node.state.keys()
            if key.startswith((CHECKING_PREFIX, SAVING_PREFIX))
        )
        accounts = sum(1 for key in node.state.keys() if key.startswith(CHECKING_PREFIX))
        # Each created account starts with 1000 + 500; payments move, but
        # never create or destroy, money.
        assert total == accounts * 1500


class TestDeterminism:
    @pytest.mark.parametrize("system", ("fabric", "bitshares", "corda_enterprise"))
    def test_same_seed_same_metrics(self, system):
        def measure():
            config = BenchmarkConfig(
                system=system, iel="DoNothing", rate_limit=25, scale=0.03,
                repetitions=1, seed=9,
            )
            result = BenchmarkRunner().run(config)
            phase = result.phase("DoNothing")
            return (phase.mtps.mean, phase.mfls.mean, phase.received.mean)

        assert measure() == measure()

    def test_different_seeds_differ_slightly(self):
        def measure(seed):
            config = BenchmarkConfig(
                system="fabric", iel="DoNothing", rate_limit=100, scale=0.03,
                repetitions=1, seed=seed, latency=EUROPEAN_WAN_LATENCY,
            )
            return BenchmarkRunner().run(config).phase("DoNothing").mfls.mean

        a, b = measure(1), measure(2)
        assert a != b  # jittered latency draws differ...
        assert abs(a - b) < 0.5 * max(a, b)  # ...but not wildly


class TestNetworkEmulation:
    @pytest.mark.parametrize("system", ("fabric", "quorum"))
    def test_netem_adds_latency_never_breaks(self, system):
        __, __, base = run_rig(system, rate=25, seed=6)
        __, __, wan = run_rig(system, rate=25, seed=6, latency=EUROPEAN_WAN_LATENCY)

        def mean_latency(records):
            records = received(records)
            assert records
            return sum(r.latency for r in records) / len(records)

        assert mean_latency(wan) > mean_latency(base)
