"""Execution costs are computed once: per function on a profile, and per
block across Fabric's peers, with the same floats as computing them
every time."""

import dataclasses

import pytest

from repro.chains.fabric import FabricPeer
from repro.chains.profiles import profile_for
from repro.chains.registry import SYSTEM_NAMES
from repro.iel import available_iels, create_iel
from tests.chains.helpers import deploy

FUNCTIONS = sorted(
    {function for name in available_iels() for function in create_iel(name).functions()}
    | {"NotAnIelFunction"}
)


@pytest.mark.parametrize("system", SYSTEM_NAMES)
def test_memoized_cost_is_the_product_bit_for_bit(system):
    profile = dataclasses.replace(profile_for(system))
    for __ in range(2):  # the first call fills the memo, the second reads it
        for function in FUNCTIONS:
            expected = profile.execute_cost * profile.function_multiplier(function)
            assert profile.execute_cost_for(function).hex() == expected.hex(), function
    assert profile.execute_cost_for("NotAnIelFunction") == profile.execute_cost


def test_memo_is_no_field_of_the_profile():
    profile = profile_for("fabric")
    fresh = dataclasses.replace(profile)
    before = repr(fresh)
    fresh.execute_cost_for("Set")
    assert repr(fresh) == before
    assert fresh == profile
    assert "_execute_costs" not in {field.name for field in dataclasses.fields(fresh)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        fresh.execute_cost = 1.0
    cheaper = dataclasses.replace(fresh, execute_cost=1.0)
    assert cheaper.execute_cost_for("Set") == 1.0 * cheaper.function_multiplier("Set")


def run_fabric(monkeypatch):
    """Run a small Fabric deployment, recording every validation cost
    charged on a peer's CPU and every execution-time computation."""
    sim, system, client = deploy("fabric", params={"MaxMessageCount": 7})
    charged = []
    for peer in system.nodes.values():
        hold = peer.cpu.hold

        def recording_hold(cost, callback, *args, _hold=hold, _peer=peer):
            if getattr(callback, "__name__", "") == "_validated":
                charged.append((_peer.endpoint_id, args[0], cost))
            return _hold(cost, callback, *args)

        peer.cpu.hold = recording_hold
    computed = []
    execution_time = FabricPeer.execution_time

    def counting_execution_time(self, transactions):
        computed.append(tuple(transactions))
        return execution_time(self, transactions)

    monkeypatch.setattr(FabricPeer, "execution_time", counting_execution_time)
    for index in range(30):
        client.submit_payload("KeyValue", "Set", key=f"k{index}", value=index)
    sim.run(until=5.0)
    return system, charged, computed


def test_fabric_validation_cost_is_the_block_cost_on_every_peer(monkeypatch):
    system, charged, __ = run_fabric(monkeypatch)
    blocks = {proposal.proposal_id for proposal, __ in system.block_log}
    assert len(blocks) >= 4
    assert len(charged) == len(blocks) * len(system.nodes)
    for peer_id, proposal, cost in charged:
        peer = system.nodes[peer_id]
        expected = peer.profile.block_overhead + execution_time_of(peer, proposal.transactions)
        assert cost.hex() == expected.hex()


def execution_time_of(peer, transactions):
    """The per-payload sum as written before the cost memo."""
    profile = peer.profile
    total = 0.0
    for tx in transactions:
        total += profile.per_tx_overhead
        for payload in tx.payloads:
            total += profile.execute_cost * profile.function_multiplier(payload.function)
    return total


def test_fabric_costs_each_block_once_not_once_per_peer(monkeypatch):
    system, charged, computed = run_fabric(monkeypatch)
    assert len(charged) == len(system.block_log) * len(system.nodes)
    assert len(computed) == len(system.block_log)
    assert [proposal.transactions for proposal, __ in system.block_log] == computed
