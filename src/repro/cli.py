"""The ``coconut`` command-line interface.

Subcommands:

* ``coconut list`` — systems, IELs and experiments available.
* ``coconut run`` — one benchmark unit with explicit settings.
* ``coconut experiment`` — reproduce one paper table or figure.
"""

from __future__ import annotations

import argparse
import os
import sys
import typing

from repro.chains.registry import SYSTEM_NAMES
from repro.coconut.config import BenchmarkConfig, UNIT_PHASES
from repro.coconut.report import unit_summary
from repro.coconut.results import ResultStore
from repro.experiments.registry import EXPERIMENT_IDS, build_experiment
from repro.experiments.sweeps import SWEEPS, build_sweep


def _positive_int(text: str) -> int:
    """argparse type for flags that need an integer >= 1 (e.g. --jobs).

    Rejecting at parse time keeps a bad value out of the multiprocessing
    pool, with the same clear-error style as the REPRO_SCALE/REPRO_REPS
    checks.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _parse_params(raw: typing.Sequence[str]) -> typing.Dict[str, object]:
    params: typing.Dict[str, object] = {}
    for item in raw:
        if "=" not in item:
            raise SystemExit(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            params[key] = float(value) if "." in value else int(value)
        except ValueError:
            params[key] = value
    return params


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.search import STRATEGIES

    print("systems:     " + ", ".join(SYSTEM_NAMES))
    print("iels:        " + ", ".join(sorted(UNIT_PHASES)))
    print("experiments: " + ", ".join(EXPERIMENT_IDS))
    print("sweeps:      " + ", ".join(sorted(SWEEPS)))
    print("strategies:  " + ", ".join(sorted(STRATEGIES)))
    return 0


def _load_workload(path: typing.Optional[str], command: str):
    """The WorkloadSpec ``--workload`` names, or None."""
    if not path:
        return None
    from repro.workloads import WorkloadSpec

    try:
        return WorkloadSpec.from_json_file(path)
    except (OSError, ValueError) as error:
        raise SystemExit(f"coconut {command}: error: bad workload spec: {error}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.coconut.runner import BenchmarkRunner
    from repro.net.latency import EUROPEAN_WAN_LATENCY

    fault_plan = None
    if args.faults:
        from repro.faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_json_file(args.faults)
        except (OSError, ValueError) as error:
            raise SystemExit(f"coconut run: error: bad fault plan: {error}")
    workload = _load_workload(args.workload, "run")
    try:
        config = BenchmarkConfig(
            system=args.system,
            iel=args.iel,
            rate_limit=args.rate,
            params=_parse_params(args.param),
            ops_per_transaction=args.ops,
            txs_per_batch=args.batch,
            node_count=args.nodes,
            repetitions=args.repetitions,
            latency=EUROPEAN_WAN_LATENCY if args.netem else None,
            fault_plan=fault_plan,
            workload=workload,
            scale=args.scale,
            seed=args.seed,
        )
    except ValueError as error:
        raise SystemExit(f"coconut run: error: {error}")
    spill = None
    if args.stream_spill:
        from repro.stream import SpillSink

        spill_dir = os.path.dirname(os.path.abspath(args.stream_spill))
        if not os.path.isdir(spill_dir):
            raise SystemExit(
                f"coconut run: error: spill directory does not exist: {spill_dir}")
        spill = SpillSink(args.stream_spill)
    tracer = None
    if args.trace:
        from repro.trace import TraceConfig, Tracer

        try:
            trace_config = TraceConfig.from_spec(
                categories=args.trace_categories,
                sample_rate=args.trace_sample,
            )
        except ValueError as error:
            raise SystemExit(f"coconut run: error: {error}")
        # Fail on an unwritable destination now, not after the run.
        trace_dir = os.path.dirname(os.path.abspath(args.trace))
        if not os.path.isdir(trace_dir):
            raise SystemExit(
                f"coconut run: error: trace directory does not exist: {trace_dir}")
        tracer = Tracer(trace_config)
    store = ResultStore(args.output) if args.output else None
    check = args.check or args.check_level is not None
    runner = BenchmarkRunner(store=store, progress=print if args.verbose else None,
                             tracer=tracer, check=check,
                             check_level=args.check_level or "basic",
                             spill=spill)
    try:
        result = runner.run(config)
    finally:
        if spill is not None:
            spill.close()
    print(unit_summary(result))
    if spill is not None:
        print(f"stream: peak live records/client {runner.last_stream_peak}, "
              f"{runner.last_stream_spilled} records spilled -> {args.stream_spill}")
    if args.verbose:
        from repro.coconut.report import latency_table

        print(latency_table(sorted(result.phases.items())))
    for phase, phase_result in sorted(result.phases.items()):
        report = phase_result.resilience_report()
        if report is not None:
            print(f"resilience [{phase}]: {report.render()}")
    if runner.last_invariants is not None:
        print(f"invariants: {runner.last_invariants.render()}")
    if args.blockstats and runner.last_rig is not None:
        from repro.analysis.blockstats import collect_block_stats

        node = runner.last_rig.system.nodes[runner.last_rig.system.node_ids[0]]
        print(f"block stats: {collect_block_stats(node.chain).describe()}")
    if tracer is not None:
        _export_trace(tracer, args)
    if runner.last_invariants is not None and not runner.last_invariants.ok:
        return 1
    return 0


def _export_trace(tracer, args: argparse.Namespace) -> None:
    """Write the collected trace and print a one-screen summary."""
    from repro.analysis.tracestats import render_span_stats
    from repro.trace import write_chrome_trace, write_jsonl

    # Spans still open (e.g. transactions that never confirmed) are
    # closed at the end of the run and flagged, so they stay visible.
    incomplete = tracer.drain_open(incomplete=True)
    if args.trace_format == "jsonl":
        write_jsonl(tracer, args.trace)
    else:
        write_chrome_trace(tracer, args.trace)
    print(
        f"trace: {len(tracer.spans)} spans ({incomplete} incomplete), "
        f"{len(tracer.events)} events -> {args.trace} [{args.trace_format}]"
    )
    print(render_span_stats(tracer, top=8))


def _executor(args: argparse.Namespace, check_level: typing.Optional[str] = None):
    """The executor ``--jobs``/``--cache-dir``/``--verbose`` describe."""
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import Executor

    return Executor(jobs=args.jobs,
                    cache=ResultCache(args.cache_dir) if args.cache_dir else None,
                    progress=print if args.verbose else None,
                    check_level=check_level)


def _cmd_experiment(args: argparse.Namespace) -> int:
    experiment = build_experiment(args.experiment_id)
    executor = _executor(args)
    kwargs: typing.Dict[str, object] = {"executor": executor}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    import inspect

    run_parameters = inspect.signature(experiment.run).parameters
    if args.systems and "systems" in run_parameters:
        kwargs["systems"] = args.systems.split(",")
    run = experiment.run(**kwargs)
    print(run.render())
    print(executor.summary())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep = build_sweep(args.sweep_id)
    executor = _executor(args)
    run = sweep.run(executor=executor, scale=args.scale)
    print(run.render())
    print(executor.summary())
    return 0


def _parse_search_params(raw: typing.Sequence[str]):
    """``name=low:high:step`` specs -> Domain objects."""
    from repro.search import Domain

    domains = []
    for spec in raw:
        if "=" not in spec or spec.count(":") != 2:
            raise SystemExit(
                f"coconut search: error: --search-param expects "
                f"name=low:high:step, got {spec!r}"
            )
        name, bounds = spec.split("=", 1)
        pieces = bounds.split(":")
        integer = not any("." in piece for piece in pieces)
        try:
            low, high, step = (float(piece) for piece in pieces)
        except ValueError:
            raise SystemExit(
                f"coconut search: error: --search-param expects numeric "
                f"low:high:step, got {spec!r}"
            ) from None
        try:
            domains.append(Domain(name=name, low=low, high=high, step=step,
                                  integer=integer))
        except ValueError as error:
            raise SystemExit(f"coconut search: error: {error}") from None
    return tuple(domains)


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.experiments.capacity import CAPACITY_SPACES
    from repro.search import CapacitySearch, Domain, SearchSpace, SustainabilityJudge

    preset = CAPACITY_SPACES[args.system].rate
    try:
        rate = Domain(
            name="rate_limit",
            low=args.rate_min if args.rate_min is not None else preset.low,
            high=args.rate_max if args.rate_max is not None else preset.high,
            step=args.rate_step if args.rate_step is not None else preset.step,
        )
        space = SearchSpace(rate=rate, params=_parse_search_params(args.search_param))
        judge = SustainabilityJudge(max_loss_fraction=args.max_loss,
                                    slo_latency=args.slo)
    except ValueError as error:
        raise SystemExit(f"coconut search: error: {error}")
    config_kwargs: typing.Dict[str, object] = dict(
        params=_parse_params(args.param),
        ops_per_transaction=args.ops,
        txs_per_batch=args.batch,
        node_count=args.nodes,
    )
    workload = _load_workload(args.workload, "search")
    if workload is not None:
        try:
            workload.validate_for(args.iel, UNIT_PHASES[args.iel])
        except ValueError as error:
            raise SystemExit(f"coconut search: error: {error}")
        config_kwargs["workload"] = workload
    check = args.check or args.check_level is not None
    if check and args.cache_dir:
        # Refused here, before ResultCache creates the directory.
        raise SystemExit("coconut search: error: checked units cannot use the result "
                         "cache (fingerprints do not cover checking); drop --cache-dir")
    executor = _executor(args, (args.check_level or "basic") if check else None)
    try:
        search = CapacitySearch(
            system=args.system,
            iel=args.iel,
            space=space,
            phase=args.phase,
            strategy=args.strategy,
            judge=judge,
            config_kwargs=config_kwargs,
            scale=args.scale,
            repetitions=args.repetitions,
            seed=args.seed,
        )
    except ValueError as error:
        raise SystemExit(f"coconut search: error: {error}")
    tracer = None
    if args.trace:
        from repro.trace import TraceConfig, Tracer

        trace_dir = os.path.dirname(os.path.abspath(args.trace))
        if not os.path.isdir(trace_dir):
            raise SystemExit(
                f"coconut search: error: trace directory does not exist: {trace_dir}")
        tracer = Tracer(TraceConfig())
    report = search.run(
        executor=executor,
        tracer=tracer,
        progress=print if args.verbose else None,
    )
    print(report.render())
    print(executor.summary())
    if args.output:
        import json

        with open(args.output, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report -> {args.output}")
    if tracer is not None:
        _export_trace(tracer, args)
    if check:
        failed = [r for r in search.last_invariants if not r.ok]
        print(f"invariants: {len(search.last_invariants) - len(failed)} probes ok, "
              f"{len(failed)} with violations")
        if failed:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="coconut",
        description="COCONUT blockchain benchmark reproduction (Middleware '23)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="show systems, IELs and experiments")
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = subparsers.add_parser("run", help="run one benchmark unit")
    run_parser.add_argument("--system", required=True, choices=SYSTEM_NAMES)
    run_parser.add_argument("--iel", default="KeyValue", choices=sorted(UNIT_PHASES))
    run_parser.add_argument("--rate", type=int, default=100,
                            help="payloads/second per client (4 clients)")
    run_parser.add_argument("--param", action="append", default=[],
                            help="system parameter, key=value (repeatable)")
    run_parser.add_argument("--ops", type=int, default=1,
                            help="BitShares operations per transaction")
    run_parser.add_argument("--batch", type=int, default=1,
                            help="Sawtooth transactions per batch")
    run_parser.add_argument("--nodes", type=int, default=4)
    run_parser.add_argument("--repetitions", type=int, default=1)
    run_parser.add_argument("--netem", action="store_true",
                            help="emulate the paper's European WAN latency")
    run_parser.add_argument("--faults", metavar="PLAN_JSON",
                            help="inject faults from a JSON fault plan "
                                 '({"actions": [...]}; times are offsets '
                                 "from the first phase start)")
    run_parser.add_argument("--workload", metavar="PLAN_JSON",
                            help="offer load from a JSON workload spec "
                                 "(arrival process, access distribution, "
                                 "operation mix, per-phase overrides); "
                                 "see examples/workloads/")
    run_parser.add_argument("--stream-spill", metavar="PATH",
                            help="append every retired payload record to PATH "
                                 "as JSONL for offline full-fidelity analysis")
    run_parser.add_argument("--scale", type=float, default=0.1,
                            help="window scale (1.0 = the paper's 300 s send window)")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--check", action="store_true",
                            help="run the protocol invariant oracles alongside "
                                 "the benchmark; a violation exits non-zero")
    run_parser.add_argument("--check-level", choices=("basic", "strict"),
                            default=None,
                            help="basic = all safety oracles; strict adds "
                                 "per-block merkle verification and full "
                                 "end-of-run chain re-validation "
                                 "(implies --check)")
    run_parser.add_argument("--output", help="directory to persist results into")
    run_parser.add_argument("--blockstats", action="store_true",
                            help="print block statistics after the run")
    run_parser.add_argument("--trace", metavar="PATH",
                            help="record an execution trace to PATH")
    run_parser.add_argument("--trace-format", choices=("chrome", "jsonl"),
                            default="chrome",
                            help="chrome = Perfetto/chrome://tracing JSON, "
                                 "jsonl = flat event log (default: chrome)")
    run_parser.add_argument("--trace-categories",
                            help="comma-separated trace categories to keep "
                                 "(e.g. net,consensus,client); default: all")
    run_parser.add_argument("--trace-sample", type=float, default=1.0,
                            help="deterministic sampling rate for per-transaction "
                                 "spans (default: 1.0)")
    run_parser.add_argument("--verbose", action="store_true")
    run_parser.set_defaults(handler=_cmd_run)

    experiment_parser = subparsers.add_parser(
        "experiment", help="reproduce one paper table or figure"
    )
    experiment_parser.add_argument("experiment_id", choices=EXPERIMENT_IDS)
    experiment_parser.add_argument("--scale", type=float, default=None)
    experiment_parser.add_argument("--systems", help="comma-separated subset (figures only)")
    experiment_parser.add_argument("--jobs", type=_positive_int, default=1,
                                   help="worker processes for independent cases "
                                        "(1 = in-process; results are identical "
                                        "for any jobs count)")
    experiment_parser.add_argument("--cache-dir", metavar="PATH",
                                   help="content-addressed result cache: cases whose "
                                        "config fingerprint is already stored are "
                                        "not re-run")
    experiment_parser.add_argument("--verbose", action="store_true")
    experiment_parser.set_defaults(handler=_cmd_experiment)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run one Table 5/6 parameter sweep"
    )
    sweep_parser.add_argument("sweep_id", choices=sorted(SWEEPS))
    sweep_parser.add_argument("--scale", type=float, default=None)
    sweep_parser.add_argument("--jobs", type=_positive_int, default=1,
                              help="worker processes for independent sweep points")
    sweep_parser.add_argument("--cache-dir", metavar="PATH",
                              help="content-addressed result cache directory")
    sweep_parser.add_argument("--verbose", action="store_true")
    sweep_parser.set_defaults(handler=_cmd_sweep)

    search_parser = subparsers.add_parser(
        "search", help="find a system's maximum sustainable throughput"
    )
    search_parser.add_argument("--system", required=True, choices=SYSTEM_NAMES)
    search_parser.add_argument("--iel", default="KeyValue", choices=sorted(UNIT_PHASES))
    search_parser.add_argument("--phase", default=None,
                               help="phase the judge watches (default: the "
                                    "phase the paper reports for the IEL)")
    search_parser.add_argument("--strategy", choices=("bisect", "grid"),
                               default="bisect",
                               help="bisect = exponential ramp-up then bisection "
                                    "(the paper's manual procedure, mechanized); "
                                    "grid = exhaustive oracle")
    search_parser.add_argument("--rate-min", type=_positive_int, default=None,
                               help="lowest per-client rate to consider "
                                    "(default: the system's preset window)")
    search_parser.add_argument("--rate-max", type=_positive_int, default=None,
                               help="highest per-client rate to consider")
    search_parser.add_argument("--rate-step", type=_positive_int, default=None,
                               help="rate grid step (the knee is resolved to "
                                    "one step)")
    search_parser.add_argument("--search-param", action="append", default=[],
                               metavar="NAME=LOW:HIGH:STEP",
                               help="also search a system parameter's domain, "
                                    "e.g. MaxMessageCount=100:2000:100 "
                                    "(repeatable; grids are crossed)")
    search_parser.add_argument("--param", action="append", default=[],
                               help="fixed system parameter, key=value (repeatable)")
    search_parser.add_argument("--ops", type=int, default=1,
                               help="BitShares operations per transaction")
    search_parser.add_argument("--batch", type=int, default=1,
                               help="Sawtooth transactions per batch")
    search_parser.add_argument("--nodes", type=int, default=4)
    search_parser.add_argument("--max-loss", type=float, default=0.02,
                               help="tolerated lost-transaction fraction "
                                    "(default: 0.02)")
    search_parser.add_argument("--slo", type=float, default=None,
                               help="finalization-latency SLO in seconds "
                                    "(default: none — loss/drain only)")
    search_parser.add_argument("--scale", type=float, default=0.05,
                               help="window scale per probe (rate metrics are "
                                    "stable across scale)")
    search_parser.add_argument("--repetitions", type=int, default=1)
    search_parser.add_argument("--seed", type=int, default=0)
    search_parser.add_argument("--jobs", type=_positive_int, default=1,
                               help="worker processes for independent probes "
                                    "of one search round")
    search_parser.add_argument("--cache-dir", metavar="PATH",
                               help="content-addressed result cache: repeated "
                                    "probes (e.g. a grid oracle after a "
                                    "bisection) are not re-run")
    search_parser.add_argument("--check", action="store_true",
                               help="run the protocol invariant oracles on every "
                                    "probe; violations exit non-zero")
    search_parser.add_argument("--check-level", choices=("basic", "strict"),
                               default=None, help="implies --check")
    search_parser.add_argument("--workload", metavar="PLAN_JSON",
                               help="offer load from a JSON workload spec "
                                    "during every probe")
    search_parser.add_argument("--output", metavar="PATH",
                               help="write the capacity report as JSON to PATH")
    search_parser.add_argument("--trace", metavar="PATH",
                               help="record search-level probe spans to PATH")
    search_parser.add_argument("--trace-format", choices=("chrome", "jsonl"),
                               default="chrome")
    search_parser.add_argument("--verbose", action="store_true")
    search_parser.set_defaults(handler=_cmd_search)

    return parser


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
