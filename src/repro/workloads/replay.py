"""Trace-to-replay hooks: turn a recorded run into a replay workload.

A run traced with ``coconut run --trace out.jsonl --trace-format jsonl``
records one ``tx`` span per payload whose start is the client-side send
instant. These helpers turn those spans back into a ``replay`` arrival
spec, so a measured arrival pattern (including every queueing artefact
of the original schedule) can be offered again — to another system, at
another scale, or under a fault plan.

Offsets are normalised to the phase's first send, so the resulting
spec is position-independent: every client of the replaying run offers
the same relative pattern the traced client did.
"""

from __future__ import annotations

import typing

from repro.workloads.spec import ArrivalSpec, WorkloadSpec


def replay_times(
    records: typing.Iterable[typing.Mapping[str, object]],
    phase: typing.Optional[str] = None,
    client: typing.Optional[str] = None,
) -> typing.Tuple[float, ...]:
    """Send offsets (seconds from first send) of a trace's ``tx`` spans.

    ``records`` is a JSONL trace loaded with
    :func:`repro.trace.jsonl.read_jsonl`; ``phase`` filters by the span's
    attribute and ``client`` by its node. Offsets are rounded to
    microseconds so a round-trip through JSON stays deterministic.
    """
    starts: typing.List[float] = []
    for record in records:
        if record.get("type") != "span" or record.get("name") != "tx":
            continue
        if record.get("cat") != "client":
            continue
        attrs = typing.cast(typing.Mapping[str, object], record.get("attrs", {}))
        if phase is not None and attrs.get("phase") != phase:
            continue
        if client is not None and record.get("node") != client:
            continue
        starts.append(float(typing.cast(float, record["start"])))
    if not starts:
        raise ValueError(
            "no client tx spans matched; trace the run with --trace-format "
            "jsonl and an unfiltered 'client' category"
        )
    origin = min(starts)
    return tuple(sorted(round(start - origin, 6) for start in starts))


def replay_spec_from_jsonl(
    path: str,
    phase: typing.Optional[str] = None,
    client: typing.Optional[str] = None,
    name: str = "",
) -> WorkloadSpec:
    """A replay :class:`WorkloadSpec` built from a JSONL trace file."""
    from repro.trace.jsonl import read_jsonl

    times = replay_times(read_jsonl(path), phase=phase, client=client)
    return WorkloadSpec(
        name=name or "replay",
        arrival=ArrivalSpec(kind="replay", times=times),
    )
