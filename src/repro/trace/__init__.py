"""End-to-end tracing and instrumentation for the simulator.

The paper explains *why* the seven systems perform differently; this
package makes the reproduction explain itself the same way. A
:class:`Tracer` threads through every layer — kernel dispatch, network
message flow, consensus rounds and phases, block finality, payload
execution and the clients' per-transaction submit→confirm life cycle —
and exports either Chrome trace-event JSON (open it in Perfetto or
``chrome://tracing``) or a flat JSONL event log. Tracing is off by
default: every simulator starts with the shared :data:`NOOP_TRACER`,
and instrumented hot paths cost a single ``tracer.enabled`` check.

Typical use::

    from repro.trace import TraceConfig, Tracer, write_chrome_trace

    tracer = Tracer(TraceConfig.from_spec("net,consensus,client"))
    runner = BenchmarkRunner(tracer=tracer)
    runner.run(config)
    write_chrome_trace(tracer, "trace.json")

Names are imported on first use (PEP 562): the exporters load only
when a trace is written.
"""

from repro._exports import lazy_exports

#: Public name -> the module that defines it, imported on first use.
_EXPORTS = {
    "CATEGORIES": "repro.trace.config",
    "Counter": "repro.trace.metrics",
    "EventRecord": "repro.trace.tracer",
    "Gauge": "repro.trace.metrics",
    "Histogram": "repro.trace.metrics",
    "Instruments": "repro.trace.tracer",
    "MetricsRegistry": "repro.trace.metrics",
    "NOOP_TRACER": "repro.trace.tracer",
    "NoopTracer": "repro.trace.tracer",
    "SpanRecord": "repro.trace.tracer",
    "TraceConfig": "repro.trace.config",
    "Tracer": "repro.trace.tracer",
    "chrome_trace": "repro.trace.chrome",
    "jsonl_lines": "repro.trace.jsonl",
    "read_jsonl": "repro.trace.jsonl",
    "write_chrome_trace": "repro.trace.chrome",
    "write_jsonl": "repro.trace.jsonl",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
