"""Stable content fingerprints for benchmark units.

A fingerprint captures everything that determines a unit's result: the
full :class:`~repro.coconut.config.BenchmarkConfig` — including scale,
repetitions and seed, the exact fields a worker rebuilds its rig from —
plus a code-version marker so a cache populated by one release of the
simulator is never replayed against another. The simulation is
deterministic, so equal fingerprints imply byte-identical
``UnitResult.to_dict()`` payloads; that equivalence is what makes the
:class:`~repro.parallel.cache.ResultCache` safe to consult.

The marker defaults to ``repro.__version__``. A cache directory
therefore survives re-runs within one checkout but is invalidated by a
version bump; callers that want a finer grain (e.g. a git commit hash)
can pass their own ``code_version``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.coconut.config import BenchmarkConfig

#: Bumped whenever the payload layout below changes shape, so caches
#: written by an older fingerprint scheme never collide with new ones.
#: 2: BenchmarkConfig grew the ``workload`` field.
#: 3: BenchmarkConfig grew ``stream_metrics`` (streamed results carry
#:    histogram fields, so the two paths must never share a cache slot).
#: 4: ``stream_metrics`` is gone: every result is measured through the
#:    accumulators and carries a latency histogram, so no result cached
#:    by an older scheme may be replayed.
FINGERPRINT_SCHEMA = 4


def _default_code_version() -> str:
    """The package version, read lazily to avoid an import cycle."""
    import repro

    return getattr(repro, "__version__", "0")


def config_payload(config: "BenchmarkConfig") -> typing.Dict[str, object]:
    """A JSON-ready dict of every result-determining config field.

    Latency models are identified by their ``describe()`` string (which
    encodes class and parameters); fault plans by their JSON form.
    ``params`` is key-sorted so insertion order cannot change the
    fingerprint.
    """
    payload: typing.Dict[str, object] = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.name == "latency":
            value = None if value is None else value.describe()
        elif field.name == "fault_plan":
            value = None if not value else json.loads(value.to_json())
        elif field.name == "workload":
            # The default spec fingerprints like None: it *is* the
            # legacy workload, and produces byte-identical results.
            value = None if value is None or value.is_default else value.to_dict()
        elif field.name == "params":
            value = {str(key): value[key] for key in sorted(value)}
        elif field.name == "phases":
            value = None if value is None else list(value)
        payload[field.name] = value
    return payload


def unit_fingerprint(
    config: "BenchmarkConfig", code_version: typing.Optional[str] = None
) -> str:
    """Hex SHA-256 fingerprint of one benchmark unit."""
    blob = json.dumps(
        {
            "schema": FINGERPRINT_SCHEMA,
            "code": code_version if code_version is not None else _default_code_version(),
            "config": config_payload(config),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
