#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: run every paper experiment and record
paper-vs-measured numbers.

Usage::

    python scripts/generate_experiments_md.py [output_path] \
        [--jobs N] [--cache-dir PATH]

Honours REPRO_SCALE / REPRO_FULL_SCALE / REPRO_REPS. At the default
(recommended per-case) scales the full sweep takes roughly 20 minutes
serially; ``--jobs N`` fans independent units over N worker processes
(results are identical for any jobs count) and ``--cache-dir`` skips
every unit whose config fingerprint is already cached from a prior run.
"""

import argparse
import datetime
import io
import os
import time

from repro.chains.registry import SYSTEM_LABELS
from repro.experiments.figures import (
    BENCHMARK_ROWS,
    FIG3_PAPER_CELLS,
    FIG4_PAPER_CELLS,
    FIG5_EXPECTATIONS,
    ScalabilityExperiment,
)
from repro.experiments.registry import EXPERIMENT_IDS, build_experiment
from repro.parallel.cache import ResultCache
from repro.parallel.executor import Executor

TABLE_IDS = [e for e in EXPERIMENT_IDS if e.startswith("table")]

FOOTER = """
## Known divergences

Where the model and the paper part ways, and why:

* **Window-proportional quantities.** Received/expected NoT and any
  latency that grows over the run (Corda OS's 152 s MFLS, Quorum's
  12.3 s, Sawtooth's 238 s at RL=1600) scale with the benchmark window;
  at `scale=0.25` Corda OS reports ~35 s for the same queue-growth
  dynamics. `REPRO_FULL_SCALE=1` recovers the paper's magnitudes.
* **Diem BS=100 rows** confirm nothing at reduced scale: the Get phase
  inherits a mempool of Set transactions that drains at ~35 payloads/s,
  so confirmations start after the scaled listen window closes. Full
  windows reproduce the paper's small received counts.
* **Figure 4, BitShares stateful benchmarks**: the paper measures large
  drops under WAN latency for KeyValue-Set/Get and CreateAccount
  (1581-1588 down to 579-1046 MTPS) without identifying a mechanism; the
  model's witness pipeline has no bandwidth-delay coupling for these
  workloads and stays near full rate. (Fabric's drop, which the paper
  does explain — orderer communication — is modelled and reproduces.)
* **BankingApp history effects**: our Balance cells inherit each unit's
  SendPayment aftermath exactly as deployed benchmarks do, so cells like
  Quorum Balance (116 vs the paper's 362) and Sawtooth SendPayment (45
  vs 16) land on the right side of collapse/survive but not on the
  paper's exact operating point.
* **Fabric Raft-vs-Kafka losses** (Section 5.4): the paper attributes
  Raft's lost transactions at RL=1600 to orderer malfunctions in the
  then-young Raft implementation; the model's losses are a validation
  backlog tail that both ordering backends share
  (`benchmarks/bench_ext_kafka_ordering.py` documents this).
* **Corda OS at 32 nodes** trickles at ~0.6 MTPS rather than failing
  to exactly zero; the paper reports all runs failing. The collapse
  mechanism (serial signing across 31 counterparties) is the same.
* **Explicitly scripted behaviours** (documented in DESIGN.md): the
  Fabric >=16-peer event-service failure and the Sawtooth >=16-node
  pending stall are reproduced at the sizes the paper observed, not
  derived from first principles — the paper itself reports both without
  root cause.
"""

HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by `scripts/generate_experiments_md.py` on {date}
(window scale: per-case recommended defaults{scale_note}; repetitions per
case: {reps}).

Absolute fidelity is not the goal — the substrate is a protocol-level
simulator, not the authors' AMD Ryzen testbed — the *shape* is: which
system wins each benchmark, by roughly what factor, and which
configurations fail outright. Every row below is also asserted
automatically by the corresponding bench in `benchmarks/`
(`pytest benchmarks/ --benchmark-only`).

Scaled-window caveat: phenomena slower than the scaled listen window
cannot be observed at reduced scale. Two rows are affected at the
default scales and recover at `REPRO_FULL_SCALE=1`: Diem's BS=100 rows
(confirmations begin only after ~250 s of mempool draining) and
the NoT counts, which scale with the window length (compare *rates*,
not counts, across scales).
"""


def render_grid(cells, paper_cells, systems, title, writer):
    writer.write(f"\n### {title}\n\n")
    writer.write("| Benchmark | " + " | ".join(SYSTEM_LABELS[s] for s in systems) + " |\n")
    writer.write("|" + "---|" * (len(systems) + 1) + "\n")
    for __, phase in BENCHMARK_ROWS:
        row = [f"**{phase}**"]
        for system in systems:
            result = cells.get((phase, system))
            paper = paper_cells.get((phase, system))
            paper_text = (
                f"paper {paper.mtps:.2f}" if paper and paper.mtps is not None else "paper n/a"
            )
            if result is None:
                row.append("—")
            elif result.received.mean == 0:
                row.append(f"FAIL ({paper_text})")
            else:
                row.append(f"{result.mtps.mean:.2f} ({paper_text})")
        writer.write("| " + " | ".join(row) + " |\n")


def parse_args():
    from repro.cli import _positive_int

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output_path", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for independent units")
    parser.add_argument("--cache-dir",
                        help="content-addressed result cache directory")
    return parser.parse_args()


def main():
    args = parse_args()
    output_path = args.output_path
    executor = Executor(
        jobs=args.jobs,
        cache=ResultCache(args.cache_dir) if args.cache_dir else None,
        progress=lambda line: print(f"  {line}", flush=True),
    )
    out = io.StringIO()
    reps = os.environ.get("REPRO_REPS", "1")
    scale_note = (
        ", overridden to the paper's full windows"
        if os.environ.get("REPRO_FULL_SCALE") == "1"
        else (f", overridden to {os.environ['REPRO_SCALE']}" if os.environ.get("REPRO_SCALE") else "")
    )
    out.write(HEADER.format(date=datetime.date.today().isoformat(),
                            scale_note=scale_note, reps=reps))

    out.write("\n## Result tables (Tables 7-20)\n")
    for experiment_id in TABLE_IDS:
        start = time.time()
        print(f"=== {experiment_id}", flush=True)
        experiment = build_experiment(experiment_id)
        run = experiment.run(executor=executor)
        out.write(f"\n### {run.title}\n\n")
        out.write("| Case | Paper | Measured |\n|---|---|---|\n")
        for result in run.case_results:
            case_id, paper, measured = result.comparison_row()
            out.write(f"| {case_id} | {paper} | {measured} |\n")
        scale_used = ", ".join(
            f"{case.case_id}: x{case.build_config().scale}" for case in experiment.cases
        )
        out.write(f"\nWindow scales — {scale_used}. "
                  f"(ran in {time.time() - start:.0f} s)\n")

    print("=== fig3", flush=True)
    start = time.time()
    fig3 = build_experiment("fig3").run(executor=executor)
    render_grid(fig3.cells, FIG3_PAPER_CELLS, fig3.systems,
                "Figure 3 — best MTPS, data-centre latency "
                "(cells: measured MTPS; paper values where printed)", out)
    out.write(f"\n(ran in {time.time() - start:.0f} s)\n")

    print("=== fig4", flush=True)
    start = time.time()
    fig4 = build_experiment("fig4").run(executor=executor)
    render_grid(fig4.cells, FIG4_PAPER_CELLS, fig4.systems,
                "Figure 4 — best configs under netem WAN latency (mu=12 ms)", out)
    out.write(f"\n(ran in {time.time() - start:.0f} s)\n")

    print("=== fig5", flush=True)
    start = time.time()
    fig5 = ScalabilityExperiment().run(executor=executor)
    out.write("\n### Figure 5 — DoNothing MTPS vs network size (netem latency)\n\n")
    out.write("| System | n=8 | n=16 | n=32 | Paper expectation |\n|---|---|---|---|---|\n")
    for system in fig5.systems:
        cells = []
        for n in fig5.node_counts:
            result = fig5.cells[(system, n)]
            cells.append("FAIL" if result.received.mean == 0 else f"{result.mtps.mean:.2f}")
        out.write(f"| {SYSTEM_LABELS[system]} | " + " | ".join(cells)
                  + f" | {FIG5_EXPECTATIONS[system]} |\n")
    out.write(f"\n(ran in {time.time() - start:.0f} s)\n")

    out.write("\n## Capacity search — automated MTPS ceilings\n\n")
    out.write(
        "Each table below is produced by `coconut experiment capacity_*`:\n"
        "an exponential-ramp + bisection search (`repro.search`) over a\n"
        "per-system rate window, judged on lost transactions and\n"
        "listen-window drain. The knee RL is the aggregate offered rate of\n"
        "the highest sustainable probe; \"no sustainable point\" rows are\n"
        "findings, not errors (see the Diem divergence note above). The\n"
        "BankingApp table is dominated by the scaled-window caveat: on\n"
        "most systems SendPayment losses at reduced scale exceed the 2%\n"
        "budget at *every* rate (the paper's own BankingApp tables report\n"
        "heavy losses), so only full windows yield a knee there.\n")
    for experiment_id in ("capacity_donothing", "capacity_keyvalue",
                          "capacity_bankingapp"):
        start = time.time()
        print(f"=== {experiment_id}", flush=True)
        run = build_experiment(experiment_id).run(executor=executor)
        out.write(f"\n### {run.title}\n\n")
        out.write("| System | Knee RL | MTPS | MFLS (s) | Probes | Verdict |\n")
        out.write("|---|---|---|---|---|---|\n")
        for row in run.rows:
            out.write("| " + " | ".join(row.cells()) + " |\n")
        total = sum(row.report.probe_count for row in run.rows)
        out.write(f"\n(total probes: {total}; ran in {time.time() - start:.0f} s)\n")

    out.write("\n## Workload-model experiments\n\n")
    out.write(
        "Beyond the paper: the same benchmark units under declarative\n"
        "`repro.workloads` specs (`coconut experiment skew_sweep_keyvalue`\n"
        "etc., or `coconut run --workload plan.json`). The paper's\n"
        "generator writes disjoint per-thread keys at a perfectly smooth\n"
        "rate; these sweeps vary key skew, arrival shape and read/write\n"
        "mix at rates below each system's knee, and report latency tails\n"
        "(p50/p99) and appended-but-invalidated transactions — the\n"
        "metrics where workload shape shows up first. Invalidated\n"
        "transactions still count as received (Section 5.4), so skew\n"
        "moves the Invalid column on Fabric long before it moves MTPS.\n"
        "Percentiles are nearest-rank to one latency-histogram bucket\n"
        "(2.6% wide).\n")
    for experiment_id in ("skew_sweep_keyvalue", "burst_capacity",
                          "mix_readwrite_keyvalue"):
        start = time.time()
        print(f"=== {experiment_id}", flush=True)
        run = build_experiment(experiment_id).run(executor=executor)
        out.write(f"\n### {run.title}\n\n")
        out.write("| Case | MTPS | MFLS (s) | p50 (s) | p99 (s) | NoT | Invalid |\n")
        out.write("|---|---|---|---|---|---|---|\n")
        for result in run.case_results:
            out.write("| " + " | ".join(result.row()) + " |\n")
        out.write(f"\n(ran in {time.time() - start:.0f} s)\n")

    out.write(FOOTER)
    with open(output_path, "w") as handle:
        handle.write(out.getvalue())
    print(executor.summary(), flush=True)
    print(f"wrote {output_path}", flush=True)


if __name__ == "__main__":
    main()
