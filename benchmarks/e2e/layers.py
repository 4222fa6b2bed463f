"""Per-layer split of a profiled run.

A layer is a ``repro`` subpackage. Each function's self time from a
``cProfile`` table goes to the layer owning its file. Stdlib and builtin
functions belong to no layer: their self time is charged to the layers
of their callers, in proportion to the time pstats records per caller,
following callers upward through other non-repro functions. A call into
a layer counts in ``<layer>.calls_in`` only when the caller belongs to a
different layer; a non-repro caller belongs to the layer that made most
of its calls.

This module reads plain pstats tables (``{(file, line, name): (cc, nc,
tt, ct, callers)}``) and child documents; it imports nothing from
``repro``.
"""

from __future__ import annotations

import os
import statistics
import typing

#: The layers, in stack order.
LAYERS: typing.Tuple[str, ...] = (
    "sim", "net", "consensus", "chains", "iel", "storage", "crypto",
    "coconut", "workloads", "stream", "trace", "invariants", "faults",
)

#: Repro code outside the thirteen layers (``repro/cli.py``, analysis, ...)
#: and self time no repro function caused (the profile's root).
OTHER = "other"

#: The seven systems, in the paper's order.
SYSTEMS: typing.Tuple[str, ...] = (
    "corda_os", "corda_enterprise", "bitshares", "fabric", "quorum", "sawtooth", "diem",
)

Func = typing.Tuple[str, int, str]
StatsTable = typing.Mapping[Func, tuple]


def layer_of(filename: str, package_dir: str) -> typing.Optional[str]:
    """The layer owning ``filename``; ``OTHER`` for repro code outside
    the layers; None for code outside ``package_dir`` (stdlib, builtins,
    the benchmark itself)."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    head = filename[len(prefix):].split(os.sep, 1)[0]
    return head if head in LAYERS else OTHER


#: Per-caller pstats fields: (nc, cc, tt, ct).
_CALLS, _TIME = 0, 2


def _distributions(
    stats: StatsTable, owner: typing.Mapping[Func, typing.Optional[str]], field: int
) -> typing.Callable[[Func], typing.Dict[str, float]]:
    """Returns a memoized ``func -> {layer: fraction}`` for non-repro
    functions, splitting each over its callers by the per-caller
    ``field`` (falling back to call counts where no time was recorded).
    Callers are visited in sorted order, so the result does not depend
    on the order of cProfile's table."""
    memo: typing.Dict[Func, typing.Dict[str, float]] = {}

    def resolve(func: Func, active: typing.Set[Func]) -> typing.Dict[str, float]:
        if func in memo:
            return memo[func]
        callers = {
            caller: value for caller, value in sorted(stats[func][4].items())
            if caller not in active
        }
        weights = {caller: float(value[field]) for caller, value in callers.items()}
        if not any(weights.values()):
            weights = {caller: float(value[_CALLS]) for caller, value in callers.items()}
        total = sum(weights.values())
        if not total:
            memo[func] = {OTHER: 1.0}
            return memo[func]
        share: typing.Dict[str, float] = {}
        active.add(func)
        for caller, weight in weights.items():
            layer = owner.get(caller)
            parts = {layer: 1.0} if layer is not None else resolve(caller, active)
            for part, fraction in parts.items():
                share[part] = share.get(part, 0.0) + fraction * weight / total
        active.discard(func)
        memo[func] = share
        return share

    return lambda func: resolve(func, set())


def summarize(
    stats: StatsTable,
    package_dir: str,
    counted: typing.Optional[typing.Mapping[str, typing.Sequence[Func]]] = None,
) -> dict:
    """Self seconds and cross-layer calls per layer, plus exact call
    counts of the functions named in ``counted``."""
    counted = counted or {}
    owner = {func: layer_of(func[0], package_dir) for func in stats}
    time_split = _distributions(stats, owner, _TIME)
    # Call counts are exact, so a non-repro caller's layer for calls_in
    # comes from them and repeats exactly run to run.
    call_split = _distributions(stats, owner, _CALLS)

    def dominant(func: Func) -> str:
        layer = owner[func]
        if layer is not None:
            return layer
        share = call_split(func)
        return max(sorted(share), key=share.__getitem__)

    self_s = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    calls_in = {layer: 0 for layer in LAYERS}
    for func in sorted(stats):
        __, __, tt, __, callers = stats[func]
        layer = owner[func]
        if layer is None:
            for part, fraction in time_split(func).items():
                self_s[part] += tt * fraction
            continue
        self_s[layer] += tt
        if layer == OTHER:
            continue
        for caller, value in callers.items():
            if caller in owner and dominant(caller) != layer:
                calls_in[layer] += value[_CALLS]
    counts = {
        name: sum(stats[func][1] for func in funcs if func in stats)
        for name, funcs in counted.items()
    }
    return {
        "self_s": self_s,
        "total_s": sum(self_s.values()),
        "calls_in": calls_in,
        "counts": counts,
    }


# ----------------------------------------------------------------------
# Per-layer metrics of one workload

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: typing.Tuple[typing.Tuple[str, str, str], ...] = (
    tuple((f"{layer}.self_share", "ratio", "lower") for layer in LAYERS)
    + tuple((f"{layer}.calls_in", "count", "lower") for layer in LAYERS)
    + (
        ("sim.events_scheduled", "count", "lower"),
        ("sim.timers_cancelled", "count", "lower"),
        ("sim.events_per_s", "1/s", "higher"),
        ("net.sends", "count", "lower"),
        ("net.broadcasts", "count", "lower"),
        ("net.messages_sent", "count", "lower"),
        ("net.drop_share", "ratio", "lower"),
        ("net.messages_per_payload", "ratio", "lower"),
        ("crypto.hash_calls", "count", "lower"),
        ("crypto.hashes_per_payload", "ratio", "lower"),
        ("storage.appends", "count", "lower"),
        ("chains.node_messages", "count", "lower"),
        ("consensus.decisions", "count", "higher"),
        ("coconut.offered", "count", "higher"),
        ("coconut.confirmed_share", "ratio", "higher"),
        ("coconut.late_receipts", "count", "lower"),
        ("invariants.checks", "count", "higher"),
        ("trace.records", "count", "lower"),
        ("trace.dropped_records", "count", "lower"),
    )
    + tuple((f"chains.{system}.cpu_share", "ratio", "lower") for system in SYSTEMS)
    + (("profile.overhead", "ratio", "lower"),)
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(profiled: dict, untraced: typing.Sequence[dict]) -> typing.Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one workload, from one profiled
    child document and the untraced ones of the same workload."""
    profile = profiled["profile"]
    total = profile["total_s"]
    metrics: typing.Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(profile["self_s"][layer], total)
    for layer in LAYERS:
        metrics[f"{layer}.calls_in"] = profile["calls_in"][layer]
    counts = profile["counts"]
    units = [unit for unit in profiled["units"] if unit["error"] is None]

    def summed(key: str) -> int:
        return sum(unit["counters"][key] for unit in units)

    phases = [phase for unit in units for phase in unit["outputs"]["phases"].values()]
    offered = sum(phase["expected"] for phase in phases)
    sent = summed("messages_sent")
    # The run's ref_cpu_s.
    cpu = statistics.median(child["ref_cpu_s"] for child in untraced)
    metrics.update(
        {
            "sim.events_scheduled": counts["sim.events_scheduled"],
            "sim.timers_cancelled": counts["sim.timers_cancelled"],
            "sim.events_per_s": _ratio(counts["sim.events_scheduled"], cpu),
            "net.sends": counts["net.sends"],
            "net.broadcasts": counts["net.broadcasts"],
            "net.messages_sent": sent,
            "net.drop_share": _ratio(summed("messages_dropped"), sent),
            "net.messages_per_payload": _ratio(sent, offered),
            "crypto.hash_calls": counts["crypto.hash_calls"],
            "crypto.hashes_per_payload": _ratio(counts["crypto.hash_calls"], offered),
            "storage.appends": counts["storage.appends"],
            "chains.node_messages": counts["chains.node_messages"],
            "consensus.decisions": counts["consensus.decisions"],
            "coconut.offered": offered,
            "coconut.confirmed_share": _ratio(
                sum(phase["received"] for phase in phases), offered
            ),
            "coconut.late_receipts": summed("late_receipts"),
            "invariants.checks": summed("invariant_checks"),
            "trace.records": summed("trace_records"),
            "trace.dropped_records": summed("trace_dropped"),
        }
    )
    for system in SYSTEMS:
        # Share rather than seconds: a system a workload never runs
        # reads 0 on every run, and a constant time would be meaningless.
        metrics[f"chains.{system}.cpu_share"] = statistics.median(
            _ratio(
                sum(unit["cpu_s"] for unit in child["units"] if unit["system"] == system),
                child["cpu_s"],
            )
            for child in untraced
        )
    metrics["profile.overhead"] = _ratio(
        profiled["cpu_s"], statistics.median(child["cpu_s"] for child in untraced)
    )
    return metrics
