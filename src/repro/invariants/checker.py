"""The checker front-end the instrumented layers talk to.

Every :class:`~repro.sim.kernel.Simulator` carries a checker — the
module-level :data:`NOOP_CHECKER` unless the runner installs a live
:class:`InvariantChecker` — so a hook site costs one attribute test when
checking is off, mirroring the tracer's design. A live checker fans each
observation out to its oracles and collects their findings into one
:class:`~repro.invariants.report.InvariantReport`.

The checker is purely observational: it draws no randomness and
schedules nothing, so metrics are byte-identical with and without it.
"""

from __future__ import annotations

import typing

from repro.invariants.report import InvariantReport, Violation

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.consensus.base import Decision
    from repro.storage.block import Block
    from repro.storage.receipts import TxStatus
    from repro.storage.transaction import Payload

#: The supported checking levels. ``basic`` runs every safety oracle;
#: ``strict`` additionally re-verifies Merkle roots per appended block
#: and fully re-validates every chain replica at finalize.
LEVELS = ("basic", "strict")


class NoopChecker:
    """Checking disabled: hook sites test ``enabled`` and move on."""

    enabled = False


NOOP_CHECKER = NoopChecker()


class InvariantChecker:
    """One repetition's live oracle set."""

    enabled = True

    def __init__(
        self,
        level: str = "basic",
        iel: str = "",
        repetition: int = 0,
        oracles: typing.Optional[typing.Sequence[object]] = None,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown check level {level!r} (use one of {LEVELS})")
        self.level = level
        self.iel = iel
        self.repetition = repetition
        self.phase = ""
        #: payload_id -> Payload, fed by the systems' admission path so
        #: ledger oracles can interpret applied outcomes.
        self.payloads: typing.Dict[str, "Payload"] = {}
        if oracles is None:
            from repro.invariants.oracles import default_oracles

            oracles = default_oracles(level)
        self.oracles = list(oracles)
        self.report = InvariantReport(level=level)
        #: ``observed(oracle, count=1)`` accounts checks performed by one
        #: oracle: the report's own ``observe``, bound here so that an
        #: oracle's check costs one call.
        self.observed = self.report.observe
        self._finalized = False
        self._hooked = {
            hook: [oracle for oracle in self.oracles if hasattr(oracle, hook)]
            for hook in (
                "on_block", "on_apply", "on_decision", "on_qc",
                "on_notarise", "on_vault_record", "finalize",
            )
        }

    # ------------------------------------------------------------------
    # Context

    def set_phase(self, phase: str) -> None:
        """Stamp subsequent violations with the running phase."""
        self.phase = phase

    def violation(self, oracle: str, node: str, detail: str) -> None:
        """Record one violation with the current phase/repetition."""
        self.report.record(
            Violation(
                oracle=oracle, detail=detail, node=node,
                phase=self.phase, repetition=self.repetition,
            )
        )

    # ------------------------------------------------------------------
    # Hooks (called by the instrumented layers, always behind
    # ``if checker.enabled``)

    def on_payload(self, payload: "Payload") -> None:
        """A payload was admitted somewhere; remember its content."""
        self.payloads[payload.payload_id] = payload

    def on_block(self, node_id: str, block: "Block") -> None:
        """A node appended a block to its chain replica."""
        for oracle in self._hooked["on_block"]:
            oracle.on_block(self, node_id, block)

    def on_apply(
        self, node_id: str, outcome: typing.Dict[str, typing.Tuple["TxStatus", str]]
    ) -> None:
        """A node applied payloads to its world state (dict order =
        application order)."""
        for oracle in self._hooked["on_apply"]:
            oracle.on_apply(self, node_id, outcome)

    def on_decision(
        self,
        replica_id: str,
        engine: str,
        decision: "Decision",
        evidence: typing.Dict[str, object],
        n: int,
    ) -> None:
        """A consensus replica delivered a decision with its evidence."""
        for oracle in self._hooked["on_decision"]:
            oracle.on_decision(self, replica_id, engine, decision, evidence, n)

    def on_qc(self, engine: str, round_number: int, votes: int, n: int) -> None:
        """A DiemBFT leader assembled a quorum certificate."""
        for oracle in self._hooked["on_qc"]:
            oracle.on_qc(self, engine, round_number, votes, n)

    def on_notarise(
        self, notary_id: str, tx_id: str, consumed: typing.Sequence[object], ok: bool
    ) -> None:
        """A notary instance ruled on one notarisation request."""
        for oracle in self._hooked["on_notarise"]:
            oracle.on_notarise(self, notary_id, tx_id, consumed, ok)

    def on_vault_record(
        self,
        node_id: str,
        tx_id: str,
        outputs: typing.Sequence[typing.Tuple[str, object]],
        consumed: typing.Sequence[object],
    ) -> None:
        """A Corda node recorded a finalized transaction in its vault."""
        for oracle in self._hooked["on_vault_record"]:
            oracle.on_vault_record(self, node_id, tx_id, outputs, consumed)

    def finalize(self, system) -> InvariantReport:
        """End-of-run checks against the deployment's final state."""
        if not self._finalized:
            self._finalized = True
            for oracle in self._hooked["finalize"]:
                oracle.finalize(self, system)
        return self.report
