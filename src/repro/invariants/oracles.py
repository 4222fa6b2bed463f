"""The safety and ledger oracles behind the invariant checker.

Each oracle watches one protocol invariant through the checker's hooks
and records violations into the run's :class:`~repro.invariants.report.
InvariantReport`:

* :class:`AgreementOracle` — no two replicas commit different blocks at
  the same height (the core safety property of every blockchain in the
  paper's comparison).
* :class:`TotalOrderOracle` — every replica's chain grows by exactly one
  height at a time: no gaps, no replays, no reordering.
* :class:`DoubleCommitOracle` — a transaction appears in at most one
  block per replica.
* :class:`HashChainOracle` — each appended block links to the observed
  tip; at the strict level the Merkle root is re-verified per block.
* :class:`QuorumOracle` — every consensus decision carries evidence
  matching its engine's rule: 2f+1 commit votes (PBFT/IBFT), a quorum
  certificate (DiemBFT), a replication majority (Raft), the scheduled
  witness (DPoS); derived decisions (followers, state sync) must trail a
  quorum-backed one, and no two replicas may decide different proposals
  for one slot.
* :class:`NotaryUniquenessOracle` — Corda's uniqueness service never
  accepts the same input state twice.
* :class:`ConservationOracle` — BankingApp money is conserved: world
  state totals exactly what committed CreateAccounts minted, and Corda
  transactions that consume states conserve the consumed value.
* :class:`LwwOracle` — KeyValue state equals the last committed Set per
  key (last-writer-wins consistency), on vaults via shadow replay.
* :class:`ChainConsistencyOracle` (strict) — full tamper-evidence
  re-validation of every replica plus mutual prefix consistency.

Oracles only *observe*: they draw no randomness, schedule nothing and
send nothing, so a checked run's schedule is byte-identical to an
unchecked one.
"""

from __future__ import annotations

import typing

from repro.crypto.hashing import GENESIS_HASH
from repro.iel.banking import CHECKING_PREFIX, SAVING_PREFIX
from repro.storage.receipts import TxStatus
from repro.storage.utxo import StateRef

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.invariants.checker import InvariantChecker
    from repro.storage.block import Block


def proposal_digest(proposal: object) -> str:
    """A stable identity for an agreed proposal.

    Mirrors the engines' own digest rule (proposal id, then block hash,
    then repr) without importing any engine module — the checker must
    stay importable from the simulator kernel.
    """
    digest = getattr(proposal, "proposal_id", None)
    if digest is None:
        digest = getattr(proposal, "block_hash", None)
    return str(digest) if digest is not None else repr(proposal)


def _num(value: object) -> float:
    """Numeric view of a balance (non-numeric state counts as zero)."""
    return float(value) if isinstance(value, (int, float)) else 0.0


def _is_banking_key(key: str) -> bool:
    return key.startswith(CHECKING_PREFIX) or key.startswith(SAVING_PREFIX)


class AgreementOracle:
    """No two replicas commit different blocks at one height."""

    name = "agreement"

    def __init__(self) -> None:
        #: height -> (block hash, first node observed committing it).
        self._canonical: typing.Dict[int, typing.Tuple[str, str]] = {}

    def on_block(self, ch: "InvariantChecker", node_id: str, block: "Block") -> None:
        ch.observed(self.name)
        seen = self._canonical.get(block.height)
        if seen is None:
            self._canonical[block.height] = (block.block_hash, node_id)
        elif seen[0] != block.block_hash:
            ch.violation(
                self.name, node_id,
                f"height {block.height}: committed {block.block_hash[:12]} "
                f"but {seen[1]} committed {seen[0][:12]}",
            )


class TotalOrderOracle:
    """Each replica's chain grows one height at a time, gap-free."""

    name = "total-order"

    def __init__(self) -> None:
        self._next_height: typing.Dict[str, int] = {}

    def on_block(self, ch: "InvariantChecker", node_id: str, block: "Block") -> None:
        ch.observed(self.name)
        expected = self._next_height.get(node_id, 0)
        if block.height != expected:
            kind = "gap" if block.height > expected else "replay/reorder"
            ch.violation(
                self.name, node_id,
                f"{kind}: expected height {expected}, appended {block.height}",
            )
        # Resync so one bad block reports once instead of cascading.
        self._next_height[node_id] = block.height + 1


class DoubleCommitOracle:
    """A transaction commits in at most one block per replica."""

    name = "double-commit"

    def __init__(self) -> None:
        self._seen: typing.Dict[str, typing.Dict[str, int]] = {}

    def on_block(self, ch: "InvariantChecker", node_id: str, block: "Block") -> None:
        seen = self._seen.setdefault(node_id, {})
        for tx in block.transactions:
            ch.observed(self.name)
            previous = seen.get(tx.tx_id)
            if previous is not None:
                ch.violation(
                    self.name, node_id,
                    f"transaction {tx.tx_id} in blocks {previous} and {block.height}",
                )
            else:
                seen[tx.tx_id] = block.height


class HashChainOracle:
    """Every appended block links to the observed tip (and, at the
    strict level, carries a valid Merkle root)."""

    name = "hash-chain"

    def __init__(self, verify_merkle: bool = False) -> None:
        self.verify_merkle = verify_merkle
        self._tip: typing.Dict[str, str] = {}

    def on_block(self, ch: "InvariantChecker", node_id: str, block: "Block") -> None:
        ch.observed(self.name)
        tip = self._tip.get(node_id, GENESIS_HASH)
        if block.header.parent_hash != tip:
            ch.violation(
                self.name, node_id,
                f"height {block.height} parent {block.header.parent_hash[:12]} "
                f"does not match tip {tip[:12]}",
            )
        if self.verify_merkle and not block.verify_merkle_root():
            ch.violation(
                self.name, node_id, f"height {block.height}: merkle root mismatch"
            )
        self._tip[node_id] = block.block_hash


class QuorumOracle:
    """Every decision is quorum-valid for its engine and slot-unique."""

    name = "quorum"

    def __init__(self) -> None:
        #: (engine, sequence) -> first digest, deciding node, whether a
        #: quorum-backed (non-derived) decision was observed for the slot.
        self._slots: typing.Dict[
            typing.Tuple[str, int], typing.Dict[str, object]
        ] = {}
        #: engine -> rounds for which a quorum certificate was assembled.
        self._qc_rounds: typing.Dict[str, typing.Set[int]] = {}
        #: engine -> first witness schedule observed (DPoS consistency).
        self._witness_lists: typing.Dict[str, typing.Tuple[str, ...]] = {}

    def on_qc(
        self, ch: "InvariantChecker", engine: str, round_number: int, votes: int, n: int
    ) -> None:
        # Late import: the consensus package imports the simulator, which
        # imports this module.
        from repro.consensus.base import quorum_size

        ch.observed(self.name)
        need = quorum_size(n, "bft")
        if votes < need:
            ch.violation(
                self.name, "",
                f"{engine}: QC for round {round_number} from {votes} votes "
                f"(quorum is {need} of {n})",
            )
        self._qc_rounds.setdefault(engine, set()).add(round_number)

    def on_decision(
        self,
        ch: "InvariantChecker",
        replica_id: str,
        engine: str,
        decision,
        evidence: typing.Dict[str, object],
        n: int,
    ) -> None:
        ch.observed(self.name)
        digest = proposal_digest(decision.proposal)
        key = (engine, decision.sequence)
        slot = self._slots.get(key)
        if slot is None:
            slot = {"digest": digest, "node": replica_id, "backed": False}
            self._slots[key] = slot
        elif slot["digest"] != digest:
            ch.violation(
                self.name, replica_id,
                f"{engine} seq {decision.sequence}: decided {digest!r} but "
                f"{slot['node']} decided {slot['digest']!r}",
            )
        kind = evidence.get("kind")
        if kind in ("bft-votes", "crash-votes"):
            from repro.consensus.base import quorum_size

            quorum_kind = "bft" if kind == "bft-votes" else "crash"
            votes = int(typing.cast(int, evidence.get("votes", 0)))
            need = quorum_size(n, quorum_kind)
            if votes < need:
                ch.violation(
                    self.name, replica_id,
                    f"{engine} seq {decision.sequence}: committed with {votes} "
                    f"votes (quorum is {need} of {n})",
                )
            else:
                slot["backed"] = True
        elif kind == "qc":
            qc_round = evidence.get("round")
            if qc_round not in self._qc_rounds.get(engine, set()):
                ch.violation(
                    self.name, replica_id,
                    f"{engine} seq {decision.sequence}: committed round "
                    f"{qc_round} without an observed quorum certificate",
                )
            else:
                slot["backed"] = True
        elif kind == "dpos-slot":
            witnesses = tuple(typing.cast(typing.Sequence[str], evidence.get("witnesses") or ()))
            known = self._witness_lists.setdefault(engine, witnesses)
            if witnesses != known:
                ch.violation(
                    self.name, replica_id,
                    f"{engine}: witness schedule {witnesses} disagrees with {known}",
                )
            slot_number = evidence.get("slot")
            if not witnesses or not isinstance(slot_number, int):
                ch.violation(
                    self.name, replica_id,
                    f"{engine} seq {decision.sequence}: block without schedule evidence",
                )
            elif witnesses[slot_number % len(witnesses)] != decision.proposer:
                ch.violation(
                    self.name, replica_id,
                    f"{engine} slot {slot_number}: produced by {decision.proposer}, "
                    f"schedule says {witnesses[slot_number % len(witnesses)]}",
                )
            else:
                slot["backed"] = True
        elif kind in ("follow", "sync"):
            # Derived decisions (Raft followers, state-sync replay) are
            # only safe once some replica decided the slot with a quorum.
            if not slot["backed"]:
                ch.violation(
                    self.name, replica_id,
                    f"{engine} seq {decision.sequence}: derived ({kind}) with no "
                    f"quorum-backed decision observed for the slot",
                )
        else:
            ch.violation(
                self.name, replica_id,
                f"{engine} seq {decision.sequence}: decision without quorum evidence",
            )


class NotaryUniquenessOracle:
    """Corda's uniqueness service accepts each input state once."""

    name = "notary-uniqueness"

    def __init__(self) -> None:
        self._accepted: typing.Dict[object, str] = {}

    def on_notarise(
        self,
        ch: "InvariantChecker",
        notary_id: str,
        tx_id: str,
        consumed: typing.Sequence[object],
        ok: bool,
    ) -> None:
        ch.observed(self.name)
        if not ok:
            return
        for ref in consumed:
            first = self._accepted.get(ref)
            if first is not None:
                ch.violation(
                    self.name, notary_id,
                    f"{tx_id}: input state {ref} double-spent (first accepted in {first})",
                )
            else:
                self._accepted[ref] = tx_id


class ConservationOracle:
    """BankingApp money is conserved on every replica."""

    name = "conservation"

    def __init__(self) -> None:
        #: node -> balance minted by committed CreateAccounts there.
        self._minted: typing.Dict[str, float] = {}
        #: node -> CreateAccount payloads already counted (a payload can
        #: reach a node's state twice after view-change re-proposals).
        self._counted: typing.Dict[str, typing.Set[str]] = {}
        #: Corda: every output state's value, by reference.
        self._ref_values: typing.Dict[object, object] = {}
        self._checked_txs: typing.Set[str] = set()

    def on_apply(
        self,
        ch: "InvariantChecker",
        node_id: str,
        outcome: typing.Dict[str, typing.Tuple[TxStatus, str]],
    ) -> None:
        if ch.iel != "BankingApp":
            return
        counted = self._counted.setdefault(node_id, set())
        for payload_id, (status, __) in outcome.items():
            if status is not TxStatus.COMMITTED:
                continue
            payload = ch.payloads.get(payload_id)
            if payload is None or payload.function != "CreateAccount":
                continue
            ch.observed(self.name)
            if payload_id in counted:
                continue
            counted.add(payload_id)
            minted = _num(payload.arg("checking", 0)) + _num(payload.arg("saving", 0))
            self._minted[node_id] = self._minted.get(node_id, 0.0) + minted

    def on_vault_record(
        self,
        ch: "InvariantChecker",
        node_id: str,
        tx_id: str,
        outputs: typing.Sequence[typing.Tuple[str, object]],
        consumed: typing.Sequence[object],
    ) -> None:
        if ch.iel != "BankingApp":
            return
        for index, (__, value) in enumerate(outputs):
            self._ref_values.setdefault(StateRef(tx_id, index), value)
        if tx_id in self._checked_txs:
            return
        self._checked_txs.add(tx_id)
        ch.observed(self.name)
        if not consumed:
            return  # a mint (CreateAccount): adds value by design
        missing = [ref for ref in consumed if ref not in self._ref_values]
        if missing:
            ch.violation(
                self.name, node_id, f"{tx_id}: consumed unknown state(s) {missing}"
            )
            return
        produced = sum(_num(value) for __, value in outputs)
        consumed_sum = sum(_num(self._ref_values[ref]) for ref in consumed)
        if produced != consumed_sum:
            ch.violation(
                self.name, node_id,
                f"{tx_id}: outputs total {produced}, consumed inputs total "
                f"{consumed_sum} (value not conserved)",
            )

    def finalize(self, ch: "InvariantChecker", system) -> None:
        if ch.iel != "BankingApp":
            return
        for node in system.nodes.values():
            if hasattr(node, "vault"):
                continue  # Corda: covered per record + the vault shadow
            ch.observed(self.name)
            expected = self._minted.get(node.endpoint_id, 0.0)
            actual = sum(
                _num(node.state.get(key))
                for key in node.state.keys()
                if _is_banking_key(key)
            )
            if actual != expected:
                ch.violation(
                    self.name, node.endpoint_id,
                    f"total balance {actual} != minted {expected}",
                )


class LwwOracle:
    """KeyValue state equals the last committed Set per key."""

    name = "lww"

    def __init__(self) -> None:
        #: node -> key -> last committed Set value (world-state systems).
        self._last: typing.Dict[str, typing.Dict[str, object]] = {}
        #: node -> key -> (ref, value): a shadow replay of the vault.
        self._shadow: typing.Dict[
            str, typing.Dict[str, typing.Tuple[object, object]]
        ] = {}

    def on_apply(
        self,
        ch: "InvariantChecker",
        node_id: str,
        outcome: typing.Dict[str, typing.Tuple[TxStatus, str]],
    ) -> None:
        if ch.iel != "KeyValue":
            return
        last = self._last.setdefault(node_id, {})
        for payload_id, (status, __) in outcome.items():
            if status is not TxStatus.COMMITTED:
                continue
            payload = ch.payloads.get(payload_id)
            if payload is None or payload.function not in ("Set", "Rmw"):
                continue
            ch.observed(self.name)
            last[str(payload.arg("key"))] = payload.arg("value")

    def on_vault_record(
        self,
        ch: "InvariantChecker",
        node_id: str,
        tx_id: str,
        outputs: typing.Sequence[typing.Tuple[str, object]],
        consumed: typing.Sequence[object],
    ) -> None:
        if ch.iel != "KeyValue":
            return
        ch.observed(self.name)
        shadow = self._shadow.setdefault(node_id, {})
        consumed_set = set(consumed)
        if consumed_set:
            stale = [key for key, (ref, __) in shadow.items() if ref in consumed_set]
            for key in stale:
                del shadow[key]
        for index, (key, value) in enumerate(outputs):
            shadow[key] = (StateRef(tx_id, index), value)

    def finalize(self, ch: "InvariantChecker", system) -> None:
        if ch.iel != "KeyValue":
            return
        for node in system.nodes.values():
            if hasattr(node, "vault"):
                self._finalize_vault(ch, node)
                continue
            for key, value in self._last.get(node.endpoint_id, {}).items():
                ch.observed(self.name)
                actual = node.state.get(key)
                if actual != value:
                    ch.violation(
                        self.name, node.endpoint_id,
                        f"{key}: state holds {actual!r}, last committed Set "
                        f"wrote {value!r}",
                    )

    def _finalize_vault(self, ch: "InvariantChecker", node) -> None:
        shadow = self._shadow.get(node.endpoint_id, {})
        for key, (ref, value) in shadow.items():
            ch.observed(self.name)
            entry = node.vault.get(key)
            if entry is None or entry.value != value or entry.ref != ref:
                held = None if entry is None else entry.value
                ch.violation(
                    self.name, node.endpoint_id,
                    f"{key}: vault holds {held!r}, recorded writer wrote {value!r}",
                )
        for key in node.vault:
            if key not in shadow:
                ch.observed(self.name)
                ch.violation(
                    self.name, node.endpoint_id,
                    f"{key}: vault entry without any recorded transaction",
                )


class ChainConsistencyOracle:
    """Strict-level finalize: full replica re-validation + prefixes."""

    name = "chain-consistency"

    def finalize(self, ch: "InvariantChecker", system) -> None:
        from repro.storage.chain import ChainValidationError

        nodes = list(system.nodes.values())
        for node in nodes:
            ch.observed(self.name)
            try:
                node.chain.validate()
            except ChainValidationError as error:
                ch.violation(self.name, node.endpoint_id, str(error))
        for other in nodes[1:]:
            ch.observed(self.name)
            if not nodes[0].chain.same_prefix(other.chain):
                ch.violation(
                    self.name, other.endpoint_id,
                    f"chain diverged from {nodes[0].endpoint_id}",
                )


def default_oracles(level: str) -> typing.List[object]:
    """The oracle set for a checking level."""
    oracles: typing.List[object] = [
        AgreementOracle(),
        TotalOrderOracle(),
        DoubleCommitOracle(),
        HashChainOracle(verify_merkle=(level == "strict")),
        QuorumOracle(),
        NotaryUniquenessOracle(),
        ConservationOracle(),
        LwwOracle(),
    ]
    if level == "strict":
        oracles.append(ChainConsistencyOracle())
    return oracles
