"""Block statistics over a node's chain.

The paper reads these directly off the systems: whether blocks saturate
the configured maximum (Fabric can, Sawtooth never does, Diem
approximately does — Sections 5.4, 5.6, 5.7), whether block production
keeps its configured pace (BitShares' witnesses "still generate the
blocks correctly", Section 5.3), and how many blocks run empty (Quorum's
stall, Section 5.5).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.storage.chain import Chain


@dataclasses.dataclass
class BlockStats:
    """Summary statistics of one chain replica."""

    block_count: int
    empty_blocks: int
    total_transactions: int
    total_payloads: int
    max_block_payloads: int
    mean_block_payloads: float
    mean_interval: float
    max_interval: float

    @property
    def empty_fraction(self) -> float:
        """Share of blocks carrying no transactions."""
        if self.block_count == 0:
            return 0.0
        return self.empty_blocks / self.block_count

    def saturation(self, configured_max: int) -> float:
        """How full the fullest block got relative to the configured cap.

        Fabric saturates to 1.0 at high load (Section 5.4); Sawtooth
        "cannot be saturated in any scenario" (Section 5.6).
        """
        if configured_max <= 0:
            raise ValueError(f"configured_max must be positive, got {configured_max}")
        return self.max_block_payloads / configured_max

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"{self.block_count} blocks ({self.empty_fraction:.0%} empty), "
            f"mean {self.mean_block_payloads:.1f} payloads/block "
            f"(max {self.max_block_payloads}), "
            f"mean interval {self.mean_interval:.2f}s"
        )


def collect_block_stats(chain: Chain) -> BlockStats:
    """Compute :class:`BlockStats` for one chain replica."""
    blocks = list(chain.blocks())
    if not blocks:
        return BlockStats(
            block_count=0, empty_blocks=0, total_transactions=0, total_payloads=0,
            max_block_payloads=0, mean_block_payloads=0.0,
            mean_interval=0.0, max_interval=0.0,
        )
    payload_counts = [block.payload_count for block in blocks]
    timestamps = [block.timestamp for block in blocks]
    intervals = [b - a for a, b in zip(timestamps, timestamps[1:])]
    return BlockStats(
        block_count=len(blocks),
        empty_blocks=sum(1 for block in blocks if block.is_empty),
        total_transactions=sum(len(block.transactions) for block in blocks),
        total_payloads=sum(payload_counts),
        max_block_payloads=max(payload_counts),
        mean_block_payloads=sum(payload_counts) / len(blocks),
        mean_interval=(sum(intervals) / len(intervals)) if intervals else 0.0,
        max_interval=max(intervals) if intervals else 0.0,
    )


def production_pace_held(
    chain: Chain, configured_interval: float, tolerance: float = 0.5
) -> bool:
    """Whether block production kept its configured pace throughout.

    The Section 5.3 check: "whether the witnesses still generate the
    blocks correctly" — no gap may exceed the configured interval by
    more than ``tolerance`` (relative).
    """
    if configured_interval <= 0:
        raise ValueError(f"configured_interval must be positive, got {configured_interval}")
    stats = collect_block_stats(chain)
    if stats.block_count < 2:
        return True
    return stats.max_interval <= configured_interval * (1.0 + tolerance)
