"""UTXO state references for the Corda models.

Corda has no blocks: a transaction consumes input *states* and creates
output states; the notary's only job is refusing transactions whose inputs
were already consumed (Section 2). A :class:`StateRef` names one such
state. The vault (:class:`repro.chains.corda_os.VaultEntry`) and the
notary's spent set (:class:`repro.chains.corda_os.CordaNotary`) key on
it; the notary check itself lives in the notary.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class StateRef:
    """A reference to one output state of one transaction."""

    tx_id: str
    index: int

    def __str__(self) -> str:
        return f"{self.tx_id}:{self.index}"
