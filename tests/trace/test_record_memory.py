"""What a retained trace event costs in memory.

A traced run keeps every record until it is exported, and most of them
are per-message ``net.send``/``net.deliver`` events. A record that held
its own attrs dict cost about 280 bytes. A record object holding a
shared key tuple and a value tuple cost about 166. An event spread into
the tracer's flat ``EventLog`` (its shared kind tuple, node, time and
values in one list, its start in an ``array('Q')``) costs about 73, on
Python 3.9 to 3.13. The bound below sits between the last two, so a
return to one object per record fails it.
"""

import gc
import tracemalloc

from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.storage.transaction import reset_id_counters
from repro.trace.config import TraceConfig
from repro.trace.tracer import Tracer

#: Bytes a retained ``net.send``/``net.deliver`` event may cost: its
#: slots in the log's list, its start offset, and the values only it
#: keeps alive (the size int, the rounded latency).
MAX_BYTES_PER_RECORD = 100

CONFIG = BenchmarkConfig(system="quorum", iel="KeyValue", rate_limit=20, scale=0.02,
                         seed=1, phases=("Set",), repetitions=1)


def retained_bytes(max_records):
    """Traced bytes still allocated after a ``net``-only traced run of
    :data:`CONFIG`, with the runner (and its kept rig) and the tracer
    alive; returns the bytes and the tracer."""
    tracer = Tracer(TraceConfig(categories=frozenset({"net"}), max_records=max_records))
    runner = BenchmarkRunner(tracer=tracer)
    reset_id_counters()
    gc.collect()
    tracemalloc.start()
    try:
        runner.run(CONFIG)
        gc.collect()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert runner.last_rig is not None
    return current, tracer


def test_a_net_record_costs_at_most_100_bytes():
    """The same run kept with every record and with none: the
    difference is what the records cost. A first run pays for lazy
    imports and caches, so that neither side is charged for them."""
    retained_bytes(0)
    kept, tracer = retained_bytes(10**9)
    none, empty = retained_bytes(0)
    names = {event.name for event in tracer.events}
    assert names == {"net.send", "net.deliver"}
    assert empty.events == [] and empty.dropped_records == len(tracer.events) > 5000
    per_record = (kept - none) / len(tracer.events)
    assert per_record <= MAX_BYTES_PER_RECORD, f"{per_record:.1f} B per record"
