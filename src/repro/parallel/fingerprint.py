"""Stable content fingerprints for benchmark units.

A fingerprint captures everything that determines a unit's result: the
full :class:`~repro.coconut.config.BenchmarkConfig` — including scale,
repetitions and seed, the exact fields a worker rebuilds its rig from —
plus a code marker so a cache populated by one version of the simulator
is never replayed against another. The simulation is
deterministic, so equal fingerprints imply byte-identical
``UnitResult.to_dict()`` payloads; that equivalence is what makes the
:class:`~repro.parallel.cache.ResultCache` safe to consult.

The marker defaults to :func:`code_digest` of the installed ``repro``
package, so a cache entry is valid only for the code that wrote it: any
edit to any module of the package invalidates every entry. Callers that
want another grain (e.g. a git commit hash) can pass their own
``code_version``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib
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
#: 5: the code marker is the package's source digest, not its version.
FINGERPRINT_SCHEMA = 5


def code_digest(package_dir: pathlib.Path) -> str:
    """Hex SHA-256 over the sorted relative paths and bytes of every
    ``.py`` file under ``package_dir``."""
    digest = hashlib.sha256()
    for relative, path in sorted(
        (path.relative_to(package_dir).as_posix(), path) for path in package_dir.rglob("*.py")
    ):
        digest.update(relative.encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _default_code_version() -> str:
    """The installed package's :func:`code_digest`, computed on the
    first fingerprint of a process rather than at import."""
    import repro

    return code_digest(pathlib.Path(repro.__file__).parent)


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
