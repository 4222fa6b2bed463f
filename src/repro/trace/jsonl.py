"""Flat JSONL export: one JSON object per line.

The stream carries every span and event in time order followed by a
single ``{"type": "metrics", ...}`` line with the registry snapshot —
trivially greppable and loadable line by line, which is what ad-hoc
analysis of multi-hundred-thousand-record traces needs.
"""

from __future__ import annotations

import json
import typing

from repro.trace.tracer import Tracer


def jsonl_lines(tracer: Tracer) -> typing.Iterator[dict]:
    """All records as JSON-ready dicts, spans/events merged in time order.

    Only ``(time, kind, index)`` keys are sorted (spans before events at
    the same time, each in record order; event times are read straight
    from the log), and a record and its dict are built as they are
    yielded, so writing a trace holds one record's dict at a time, not
    one per record.
    """
    spans, events = tracer.spans, tracer.events
    order = [(span.start, 0, index) for index, span in enumerate(spans)]
    order.extend((time, 1, index) for index, time in enumerate(events.times()))
    order.sort()
    for __, kind, index in order:
        yield (events if kind else spans)[index].to_dict()
    yield {"type": "metrics", "metrics": tracer.metrics.snapshot(),
           "dropped_records": tracer.dropped_records}


def write_jsonl(tracer: Tracer, path: typing.Union[str, "typing.Any"]) -> None:
    """Serialise the tracer's records to ``path``, one object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in jsonl_lines(tracer):
            handle.write(json.dumps(record, default=str))
            handle.write("\n")


def read_jsonl(path: typing.Union[str, "typing.Any"]) -> typing.List[dict]:
    """Load a JSONL trace back into a list of dicts."""
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
