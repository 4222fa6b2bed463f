"""End-to-end benchmark: four workloads, gated end-to-end metrics and a
profiled per-layer split. See README.md in this directory."""
