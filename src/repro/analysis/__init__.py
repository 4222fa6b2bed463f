"""Analysis helpers: shape comparison against the paper, block
statistics, streamed latency histograms."""

from repro.analysis.blockstats import BlockStats, collect_block_stats, production_pace_held
from repro.analysis.histstats import merged_histogram, percentile_profile
from repro.analysis.compare import ShapeCheck, ordering_preserved, within_factor

__all__ = [
    "BlockStats",
    "ShapeCheck",
    "collect_block_stats",
    "merged_histogram",
    "ordering_preserved",
    "percentile_profile",
    "production_pace_held",
    "within_factor",
]
