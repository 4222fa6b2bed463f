"""Chrome trace-event export.

Produces the JSON object format consumed by Perfetto and
``chrome://tracing``: simulated seconds map to trace microseconds, every
node (endpoint) maps to its own thread row (``tid``) and spans/events
become complete (``"X"``) and instant (``"i"``) trace events. Thread
rows are labelled with metadata events so the UI shows node ids instead
of bare numbers.

Format reference:
https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
import typing

from repro.trace.tracer import Tracer

#: Simulated seconds -> trace microseconds.
_US_PER_SECOND = 1e6

#: The single synthetic process all rows live under.
_PID = 1


def _thread_ids(tracer: Tracer) -> typing.Dict[str, int]:
    """Assign one tid per node, in first-appearance order; tid 0 is the
    row for records with no node."""
    tids: typing.Dict[str, int] = {"": 0}
    for record in tracer.spans:
        tids.setdefault(record.node, len(tids))
    for node in tracer.events.nodes():
        tids.setdefault(node, len(tids))
    return tids


def chrome_events(tracer: Tracer, process_name: str = "coconut-sim") -> typing.Iterator[dict]:
    """The document's trace events in order: stably by ``(ts, tid)``,
    where metadata rows have no ``ts`` and sort as -1.

    Ties keep metadata, spans, events and record order. Only the sort
    keys are built up front, the events' straight from the log's
    columns; a record (and its trace event) is built as it is yielded,
    so writing a trace holds one of them at a time.
    """
    tids = _thread_ids(tracer)
    metadata = [
        {
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for node, tid in tids.items():
        metadata.append(
            {
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": node or "(global)"},
            }
        )
    spans, events = tracer.spans, tracer.events
    order = [(-1.0, row["tid"], 0, index) for index, row in enumerate(metadata)]
    order.extend((span.start * _US_PER_SECOND, tids[span.node], 1, index)
                 for index, span in enumerate(spans))
    order.extend((time * _US_PER_SECOND, tids[node], 2, index)
                 for index, (node, time) in enumerate(zip(events.nodes(), events.times())))
    order.sort()
    for ts, tid, kind, index in order:
        if kind == 0:
            yield metadata[index]
        elif kind == 1:
            span = spans[index]
            yield {
                "ph": "X",
                "pid": _PID,
                "tid": tid,
                "name": span.name,
                "cat": span.category,
                "ts": ts,
                "dur": max(0.0, span.duration) * _US_PER_SECOND,
                "args": span.attrs,
            }
        else:
            event = events[index]
            yield {
                "ph": "i",
                "s": "t",
                "pid": _PID,
                "tid": tid,
                "name": event.name,
                "cat": event.category,
                "ts": ts,
                "args": event.attrs,
            }


def chrome_trace(tracer: Tracer, process_name: str = "coconut-sim") -> dict:
    """Build the Chrome trace-event JSON object for a tracer's records."""
    return {
        "traceEvents": list(chrome_events(tracer, process_name)),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(tracer: Tracer, path: typing.Union[str, "typing.Any"],
                       process_name: str = "coconut-sim") -> None:
    """Serialise :func:`chrome_trace` to ``path``, the same bytes as
    ``json.dump`` writes, one trace event at a time."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"traceEvents": [')
        separator = ""
        for event in chrome_events(tracer, process_name):
            handle.write(separator)
            handle.write(json.dumps(event, default=str))
            separator = ", "
        handle.write('], "displayTimeUnit": "ms"}')
