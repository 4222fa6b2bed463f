"""Tests for the Corda notary's uniqueness service
(:class:`~repro.chains.corda_os.CordaNotary`), driven one request at a
time: a pool of signing workers, then an atomic check-and-mark against
the spent-state set."""

import types

import pytest

from repro.chains.corda_os import CordaNotary
from repro.net import Message
from repro.sim import Resource, Simulator
from repro.storage.utxo import StateRef


class RecordingNotary(CordaNotary):
    """A notary off the network: requests are handed to ``on_message``
    and each reply is recorded, with its time, instead of sent."""

    def __init__(self, sim, workers=1, service_time=0.01):
        super().__init__(
            types.SimpleNamespace(sim=sim), "notary", workers=workers,
            service_time=service_time, spent=set(),
            uniqueness_lock=Resource(sim, capacity=1, name="uniqueness"),
            cluster_commit_latency=0.0,
        )
        #: tx_id -> (reply time, ok)
        self.replies = {}

    def send(self, dst, kind, payload=None, size_bytes=256):
        assert (dst, kind) == ("client", "corda/notarise_reply")
        self.replies[payload["tx_id"]] = (self.sim.now, payload["ok"])

    def notarise(self, tx_id, refs):
        self.on_message(Message(
            "client", self.endpoint_id, "corda/notarise", {"tx_id": tx_id, "consumed": list(refs)},
        ))


@pytest.fixture()
def sim():
    return Simulator(seed=1)


def run_request(sim, notary, tx_id, refs):
    notary.notarise(tx_id, refs)
    sim.run()
    return notary.replies[tx_id][1]


class TestUniqueness:
    def test_first_spend_accepted(self, sim):
        notary = RecordingNotary(sim)
        ref = StateRef("genesis", 0)
        assert run_request(sim, notary, "tx1", [ref])
        assert notary.spent == {ref}
        assert notary.accepted == 1

    def test_double_spend_rejected(self, sim):
        notary = RecordingNotary(sim)
        ref = StateRef("genesis", 0)
        run_request(sim, notary, "tx1", [ref])
        assert not run_request(sim, notary, "tx2", [ref])
        assert notary.rejected == 1

    def test_partial_conflict_rejects_whole_transaction(self, sim):
        notary = RecordingNotary(sim)
        spent = StateRef("genesis", 0)
        fresh = StateRef("genesis", 1)
        run_request(sim, notary, "tx1", [spent])
        assert not run_request(sim, notary, "tx2", [spent, fresh])
        # The fresh input must remain spendable.
        assert fresh not in notary.spent
        assert run_request(sim, notary, "tx3", [fresh])

    def test_empty_input_transaction_accepted(self, sim):
        # Issuance transactions consume nothing.
        notary = RecordingNotary(sim)
        assert run_request(sim, notary, "tx1", [])
        assert notary.spent == set()

    def test_is_spent(self, sim):
        notary = RecordingNotary(sim)
        ref = StateRef("genesis", 0)
        assert ref not in notary.spent
        run_request(sim, notary, "tx1", [ref])
        assert ref in notary.spent

    def test_spent_set_survives_crash_and_restart(self, sim):
        notary = RecordingNotary(sim)
        ref = StateRef("genesis", 0)
        run_request(sim, notary, "tx1", [ref])
        notary.on_crash()
        notary.on_restart()
        assert not run_request(sim, notary, "tx2", [ref])


class TestServiceModel:
    def test_serial_notary_processes_one_at_a_time(self, sim):
        notary = RecordingNotary(sim, workers=1, service_time=1.0)
        for index in range(3):
            notary.notarise(f"tx{index}", [StateRef("g", index)])
        sim.run()
        assert [notary.replies[f"tx{index}"][0] for index in range(3)] == [1.0, 2.0, 3.0]

    def test_parallel_notary_overlaps(self, sim):
        notary = RecordingNotary(sim, workers=4, service_time=1.0)
        for index in range(4):
            notary.notarise(f"tx{index}", [StateRef("g", index)])
        sim.run()
        assert [time for time, __ in notary.replies.values()] == [1.0, 1.0, 1.0, 1.0]

    def test_queue_depth_visible(self, sim):
        notary = RecordingNotary(sim, workers=1, service_time=1.0)
        for index in range(5):
            notary.notarise(f"tx{index}", [])
        sim.run(until=0.5)
        assert notary.pool.queued == 4

    def test_racing_spends_one_winner(self, sim):
        # Two transactions race for the same state through a parallel
        # notary: exactly one must win.
        notary = RecordingNotary(sim, workers=2, service_time=0.5)
        ref = StateRef("genesis", 0)
        notary.notarise("tx1", [ref])
        notary.notarise("tx2", [ref])
        sim.run()
        outcomes = [notary.replies["tx1"][1], notary.replies["tx2"][1]]
        assert sorted(outcomes) == [False, True]

    def test_negative_service_time_rejected(self, sim):
        with pytest.raises(ValueError):
            RecordingNotary(sim, service_time=-0.1)
