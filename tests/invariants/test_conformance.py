"""Cross-engine conformance of the invariant-checking subsystem.

Two halves, and both matter:

* The *matrix*: every system x IEL x scenario combination runs under the
  strict checker and must produce zero safety violations. Scenarios are
  fault-free, a leader crash with restart, and a network partition with
  heal — per the paper's resilience framing, faults may cost liveness
  (transactions time out) but never safety (no replica forks, double
  commits or breaks conservation). Every cell must also leave zero
  cyclic garbage: the runner pauses the cyclic collector while a
  repetition runs, which is only safe on a heap without cycles.
* The *failure paths*: each oracle is fed a deliberately corrupted
  fixture and must flag it. An oracle that cannot detect its own
  violation class is always-green decoration, so every oracle has at
  least one seeded-violation test here.
"""

import collections
import gc
import typing

import pytest

from repro.chains.registry import SYSTEM_NAMES
from repro.coconut.config import BenchmarkConfig, UNIT_PHASES
from repro.coconut.provisioner import Provisioner, Rig
from repro.coconut.runner import BenchmarkRunner
from repro.consensus.base import Decision
from repro.crypto.hashing import GENESIS_HASH
from repro.faults import FaultPlan
from repro.invariants import InvariantChecker
from repro.storage import Transaction, TxStatus
from repro.storage.block import Block
from repro.storage.transaction import Payload
from repro.storage.utxo import StateRef

IELS = tuple(sorted(UNIT_PHASES))

#: Fault-free runs only need enough traffic to exercise every oracle;
#: faulted runs use the resilience experiments' scale so the fault at
#: 25% and the repair at 50% of the send window leave a recovery tail.
HEALTHY_SCALE = 0.05
FAULTED_SCALE = 0.2
RATE = 5
SEED = 7


def leader_crash(config: BenchmarkConfig) -> FaultPlan:
    send = config.scaled_send
    plan = FaultPlan()
    plan.kill_leader(at=0.25 * send)
    plan.restart("leader", at=0.50 * send)
    return plan


def tail_partition(config: BenchmarkConfig) -> FaultPlan:
    """Cut the last node off the network, then reconnect it.

    The last node so the scenario is meaningful for every system: in
    BitShares it is the one non-witness observer, which keeps the
    witness schedule producing while the victim is away (isolating a
    witness would merely skip its slots).
    """
    send = config.scaled_send
    target = f"n{config.node_count - 1}"
    plan = FaultPlan()
    plan.isolate(target, at=0.25 * send)
    plan.heal(target, at=0.50 * send)
    return plan


SCENARIOS = {
    "fault-free": (HEALTHY_SCALE, None),
    "leader-crash": (FAULTED_SCALE, leader_crash),
    "partition": (FAULTED_SCALE, tail_partition),
}


class HoldingProvisioner(Provisioner):
    """Keeps every rig it provisions alive, so that a collection finds
    only the cyclic garbage a run made, not the deployment it ran on."""

    def __init__(self) -> None:
        self.rigs: typing.List[Rig] = []

    def provision(self, config: BenchmarkConfig, repetition: int) -> Rig:
        rig = super().provision(config, repetition)
        self.rigs.append(rig)
        return rig


def cyclic_garbage(run: typing.Callable[[], object]) -> typing.Counter[str]:
    """Run ``run()``; return the cyclic garbage it left, by type name.

    The heap is collected clean first. Then every collection until the
    end, the runner's own included, saves what it finds in
    ``gc.garbage`` (``DEBUG_SAVEALL``) instead of freeing it.
    """
    while gc.collect():
        pass
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def run_checked(system: str, iel: str, scenario: str):
    """One strict-checked benchmark unit; returns its merged report and
    the cyclic garbage the unit left behind (type name -> count)."""
    scale, plan_fn = SCENARIOS[scenario]
    kwargs = dict(system=system, iel=iel, rate_limit=RATE, scale=scale, seed=SEED)
    if plan_fn is not None:
        kwargs["fault_plan"] = plan_fn(BenchmarkConfig(**kwargs))
    runner = BenchmarkRunner(check=True, check_level="strict", keep_last_rig=False,
                             provisioner=HoldingProvisioner())
    garbage = cyclic_garbage(lambda: runner.run(BenchmarkConfig(**kwargs)))
    return runner.last_invariants, garbage


class TestConformanceMatrix:
    """Zero safety violations and zero cyclic garbage across all
    systems, IELs and scenarios."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("iel", IELS)
    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_no_safety_violations(self, system, iel, scenario):
        report, garbage = run_checked(system, iel, scenario)
        assert report is not None
        assert report.ok, f"{system}/{iel}/{scenario}: {report.render()}"
        # A report that checked nothing proves nothing.
        assert sum(report.checks.values()) > 0
        assert not garbage, (
            f"{system}/{iel}/{scenario} left {sum(garbage.values())} objects in "
            f"reference cycles: {dict(garbage.most_common(10))}"
        )


class TestOracleCoverage:
    """The right oracles actually fire for each architecture."""

    def test_block_system_oracles_fire(self):
        report, __ = run_checked("quorum", "KeyValue", "fault-free")
        for oracle in ("agreement", "total-order", "double-commit",
                       "hash-chain", "quorum", "lww", "chain-consistency"):
            assert report.checks.get(oracle, 0) > 0, f"{oracle} never checked"

    def test_corda_oracles_fire(self):
        report, __ = run_checked("corda_os", "BankingApp", "fault-free")
        assert report.checks.get("notary-uniqueness", 0) > 0
        assert report.checks.get("conservation", 0) > 0

    def test_dpos_and_qc_evidence_fire(self):
        assert run_checked("bitshares", "DoNothing", "fault-free")[0].checks["quorum"] > 0
        assert run_checked("diem", "DoNothing", "fault-free")[0].checks["quorum"] > 0


# ----------------------------------------------------------------------
# Seeded-violation fixtures: every oracle must detect its own class.


def make_payload(function, args, iel="KeyValue"):
    return Payload.create("client-test", iel, function, args)


def make_tx(*payloads):
    return Transaction.wrap(list(payloads), "client-test")


def make_block(height, parent, txs=(), proposer="n0", timestamp=1.0):
    return Block.seal(height, parent, list(txs), proposer, timestamp)


def set_block(height, parent, key="k", value="v"):
    return make_block(height, parent, [make_tx(make_payload("Set", {"key": key, "value": value}))])


class FakeProposal:
    def __init__(self, proposal_id):
        self.proposal_id = proposal_id


def decision(seq, proposal_id, proposer="n0"):
    return Decision(sequence=seq, proposal=FakeProposal(proposal_id),
                    proposer=proposer, decided_at=1.0)


class FakeState:
    def __init__(self, data):
        self._data = dict(data)

    def get(self, key, default=None):
        return self._data.get(key, default)

    def keys(self):
        return self._data.keys()


class FakeNode:
    def __init__(self, endpoint_id, state=None, vault=None, chain=None):
        self.endpoint_id = endpoint_id
        if state is not None:
            self.state = state
        if vault is not None:
            self.vault = vault
        if chain is not None:
            self.chain = chain


class FakeSystem:
    def __init__(self, *nodes):
        self.nodes = {node.endpoint_id: node for node in nodes}


class VaultEntry:
    def __init__(self, ref, value):
        self.ref = ref
        self.value = value


class TestOracleFailurePaths:
    def checker(self, iel="KeyValue", level="strict"):
        return InvariantChecker(level=level, iel=iel)

    def test_agreement_detects_forked_height(self):
        ch = self.checker()
        ch.on_block("n0", set_block(0, GENESIS_HASH, value="one"))
        ch.on_block("n1", set_block(0, GENESIS_HASH, value="two"))
        assert len(ch.report.violations_for("agreement")) == 1
        assert "height 0" in ch.report.violations_for("agreement")[0].detail

    def test_total_order_detects_gap_and_replay(self):
        ch = self.checker()
        b0 = set_block(0, GENESIS_HASH)
        ch.on_block("n0", b0)
        ch.on_block("n0", set_block(2, b0.block_hash))  # skipped height 1
        assert any("gap" in v.detail for v in ch.report.violations_for("total-order"))
        ch2 = self.checker()
        ch2.on_block("n0", b0)
        ch2.on_block("n0", b0)  # height 0 again
        assert any("replay" in v.detail
                   for v in ch2.report.violations_for("total-order"))

    def test_double_commit_detects_duplicate_transaction(self):
        ch = self.checker()
        tx = make_tx(make_payload("Set", {"key": "k", "value": "v"}))
        b0 = make_block(0, GENESIS_HASH, [tx])
        ch.on_block("n0", b0)
        ch.on_block("n0", make_block(1, b0.block_hash, [tx]))
        assert len(ch.report.violations_for("double-commit")) == 1

    def test_hash_chain_detects_forged_parent(self):
        ch = self.checker()
        forged_parent = "f" * len(GENESIS_HASH)
        assert forged_parent != GENESIS_HASH
        ch.on_block("n0", set_block(0, forged_parent))
        assert len(ch.report.violations_for("hash-chain")) == 1

    def test_hash_chain_detects_swapped_transactions(self):
        # A valid header over different transactions: the strict-level
        # Merkle re-verification must catch the swap.
        ch = self.checker(level="strict")
        good = set_block(0, GENESIS_HASH, value="original")
        forged = Block(good.header, [make_tx(make_payload("Set", {"key": "k", "value": "swapped"}))])
        ch.on_block("n0", forged)
        assert any("merkle" in v.detail for v in ch.report.violations_for("hash-chain"))

    def test_quorum_detects_insufficient_bft_votes(self):
        ch = self.checker()
        # n=4 needs 3 commit votes; 2 is below quorum.
        ch.on_decision("n0", "PbftEngine", decision(0, "prop-a"),
                       {"kind": "bft-votes", "votes": 2}, 4)
        assert len(ch.report.violations_for("quorum")) == 1

    def test_quorum_detects_insufficient_crash_votes(self):
        ch = self.checker()
        # n=3 Raft needs a majority of 2; 1 is the leader alone.
        ch.on_decision("o0", "RaftEngine", decision(0, "prop-a"),
                       {"kind": "crash-votes", "votes": 1}, 3)
        assert len(ch.report.violations_for("quorum")) == 1

    def test_quorum_detects_equivocation(self):
        ch = self.checker()
        ch.on_decision("n0", "PbftEngine", decision(0, "prop-a"),
                       {"kind": "bft-votes", "votes": 3}, 4)
        ch.on_decision("n1", "PbftEngine", decision(0, "prop-b"),
                       {"kind": "bft-votes", "votes": 3}, 4)
        assert any("decided" in v.detail for v in ch.report.violations_for("quorum"))

    def test_quorum_detects_unbacked_derived_decision(self):
        ch = self.checker()
        ch.on_decision("n2", "PbftEngine", decision(0, "prop-a"), {"kind": "sync"}, 4)
        assert any("derived" in v.detail for v in ch.report.violations_for("quorum"))

    def test_quorum_accepts_backed_derived_decision(self):
        ch = self.checker()
        ch.on_decision("n0", "RaftEngine", decision(0, "prop-a"),
                       {"kind": "crash-votes", "votes": 2}, 3)
        ch.on_decision("n1", "RaftEngine", decision(0, "prop-a"), {"kind": "follow"}, 3)
        assert ch.report.ok

    def test_quorum_detects_off_schedule_dpos_producer(self):
        ch = self.checker()
        witnesses = ("n0", "n1", "n2")
        ch.on_decision("n0", "DposEngine", decision(0, "prop-a", proposer="n2"),
                       {"kind": "dpos-slot", "slot": 0, "witnesses": witnesses}, 4)
        assert any("schedule says n0" in v.detail
                   for v in ch.report.violations_for("quorum"))

    def test_quorum_detects_qc_without_certificate(self):
        ch = self.checker()
        ch.on_decision("n0", "DiemBftEngine", decision(0, "prop-a"),
                       {"kind": "qc", "round": 5}, 4)
        assert any("quorum certificate" in v.detail
                   for v in ch.report.violations_for("quorum"))

    def test_quorum_detects_undersized_qc(self):
        ch = self.checker()
        ch.on_qc("DiemBftEngine", 3, votes=2, n=4)
        assert len(ch.report.violations_for("quorum")) == 1

    def test_quorum_detects_missing_evidence(self):
        ch = self.checker()
        ch.on_decision("n0", "PbftEngine", decision(0, "prop-a"), {}, 4)
        assert any("without quorum evidence" in v.detail
                   for v in ch.report.violations_for("quorum"))

    def test_notary_detects_double_spend(self):
        ch = self.checker(iel="BankingApp")
        ref = StateRef("tx-mint", 0)
        ch.on_notarise("notary", "tx-a", [ref], ok=True)
        ch.on_notarise("notary", "tx-b", [ref], ok=True)
        assert len(ch.report.violations_for("notary-uniqueness")) == 1
        # Rejected requests consume nothing.
        ch.on_notarise("notary", "tx-c", [StateRef("tx-other", 0)], ok=False)
        assert len(ch.report.violations_for("notary-uniqueness")) == 1

    def test_conservation_detects_leaked_balance(self):
        ch = self.checker(iel="BankingApp", level="basic")
        payload = make_payload("CreateAccount",
                               {"account": "a", "checking": 1000, "saving": 500},
                               iel="BankingApp")
        ch.on_payload(payload)
        ch.on_apply("n0", {payload.payload_id: (TxStatus.COMMITTED, "")})
        # 1 unit vanished from checking: 1499 != the 1500 minted.
        node = FakeNode("n0", state=FakeState({"checking:a": 999, "saving:a": 500}))
        ch.finalize(FakeSystem(node))
        assert len(ch.report.violations_for("conservation")) == 1

    def test_conservation_detects_non_conserving_vault_record(self):
        ch = self.checker(iel="BankingApp", level="basic")
        ch.on_vault_record("nodeA", "tx-mint", [("acct", 1500)], consumed=[])
        ch.on_vault_record("nodeA", "tx-split", [("a", 700), ("b", 700)],
                           consumed=[StateRef("tx-mint", 0)])
        assert any("not conserved" in v.detail
                   for v in ch.report.violations_for("conservation"))

    def test_conservation_detects_unknown_consumed_state(self):
        ch = self.checker(iel="BankingApp", level="basic")
        ch.on_vault_record("nodeA", "tx-x", [("a", 10)],
                           consumed=[StateRef("tx-never-seen", 0)])
        assert any("unknown state" in v.detail
                   for v in ch.report.violations_for("conservation"))

    def test_lww_detects_stale_state(self):
        ch = self.checker(iel="KeyValue", level="basic")
        payload = make_payload("Set", {"key": "k", "value": "new"})
        ch.on_payload(payload)
        ch.on_apply("n0", {payload.payload_id: (TxStatus.COMMITTED, "")})
        node = FakeNode("n0", state=FakeState({"k": "old"}))
        ch.finalize(FakeSystem(node))
        assert len(ch.report.violations_for("lww")) == 1

    def test_lww_detects_vault_divergence(self):
        ch = self.checker(iel="KeyValue", level="basic")
        ref = StateRef("tx-1", 0)
        ch.on_vault_record("nodeA", "tx-1", [("k", "recorded")], consumed=[])
        node = FakeNode("nodeA", vault={"k": VaultEntry(ref, "tampered")})
        ch.finalize(FakeSystem(node))
        assert any("recorded writer wrote" in v.detail
                   for v in ch.report.violations_for("lww"))

    def test_lww_detects_unrecorded_vault_entry(self):
        ch = self.checker(iel="KeyValue", level="basic")
        node = FakeNode("nodeA",
                        vault={"ghost": VaultEntry(StateRef("tx-?", 0), "v")})
        ch.finalize(FakeSystem(node))
        assert any("without any recorded transaction" in v.detail
                   for v in ch.report.violations_for("lww"))

    def test_chain_consistency_detects_divergent_replicas(self):
        from repro.storage.chain import Chain

        ch = self.checker(level="strict")
        chain_a, chain_b = Chain("n0"), Chain("n1")
        chain_a.append(set_block(0, GENESIS_HASH, value="one"))
        chain_b.append(set_block(0, GENESIS_HASH, value="two"))
        ch.finalize(FakeSystem(FakeNode("n0", chain=chain_a),
                               FakeNode("n1", chain=chain_b)))
        assert any("diverged" in v.detail
                   for v in ch.report.violations_for("chain-consistency"))

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            InvariantChecker(level="paranoid")
