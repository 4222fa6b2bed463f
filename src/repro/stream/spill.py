"""Optional sinks for full-fidelity payload records.

Clients deliberately forget individual payloads the moment they
resolve; analyses that need the raw records (per-transaction latency
scatter, custom windows, post-hoc resilience slicing) attach a sink
through ``BenchmarkRunner(spill=...)`` (or ``client.stream.sink`` on a
hand-driven rig). The record of every resolved payload — and of every
payload still pending at phase teardown — is built for the sink and
handed to it exactly once, in simulation order. :class:`SpillSink` appends each as one JSON line, so the file is
itself deterministic for a fixed seed; :class:`RetainingSink` keeps the
records in memory, which grows with the offered load.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing


@dataclasses.dataclass
class PayloadRecord:
    """The client-side life of one payload, as a sink receives it.

    Clients build one only when a sink is attached: while a payload is
    in flight they keep just its start time.
    """

    payload_id: str
    phase: str
    start_time: float
    end_time: typing.Optional[float] = None
    status: str = "pending"
    #: Confirmed but flagged invalid on-chain (Fabric MVCC conflicts);
    #: still counts as received per Section 5.4.
    invalid: bool = False

    @property
    def received(self) -> bool:
        """Whether a finalization confirmation arrived in time."""
        return self.status == "received"

    @property
    def latency(self) -> float:
        """End-to-end finalization latency (FLS)."""
        if self.end_time is None:
            raise ValueError(f"payload {self.payload_id} has no end time")
        return self.end_time - self.start_time


class SpillSink:
    """Append-only JSONL writer for retired payload records."""

    def __init__(self, path: typing.Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self._handle: typing.Optional[typing.TextIO] = None
        #: Context fields stamped onto every line (e.g. repetition).
        self._context: typing.Dict[str, object] = {}
        self.lines = 0

    def set_context(self, **fields: object) -> None:
        """Replace the per-line context (the runner sets repetition)."""
        self._context = dict(fields)

    def write_record(self, client_id: str, record: PayloadRecord) -> None:
        """Append one payload record as a JSON line."""
        if self._handle is None:
            self._handle = self.path.open("w", encoding="utf-8")
        entry: typing.Dict[str, object] = dict(self._context)
        entry.update(
            client=client_id,
            phase=record.phase,
            payload_id=record.payload_id,
            start_time=record.start_time,
            end_time=record.end_time,
            status=record.status,
            invalid=record.invalid,
        )
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self.lines += 1

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SpillSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_spill(path: typing.Union[str, pathlib.Path]) -> typing.List[dict]:
    """Load a spill file back as a list of dicts (analysis helper)."""
    entries = []
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


class RetainingSink:
    """In-memory sink: keeps every record it is handed, in order.

    Records of every client, phase and repetition land in one list;
    filter on ``record.phase`` as needed.
    """

    def __init__(self) -> None:
        self.records: typing.List[PayloadRecord] = []

    def set_context(self, **fields: object) -> None:
        """Context is not stamped onto retained records."""

    def write_record(self, client_id: str, record: PayloadRecord) -> None:
        """Keep one payload record."""
        self.records.append(record)


#: Anything the runner and clients can hand retired records to.
RecordSink = typing.Union[SpillSink, RetainingSink]
