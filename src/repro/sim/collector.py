"""The cyclic garbage collector around simulation runs.

A simulation run creates no reference cycles (the conformance matrix
checks every system, IEL and fault scenario), so the collector's passes
during one would only re-scan the live deployment. The benchmark runner
pauses automatic collection while a repetition runs
(:func:`collector_paused`) and collects a deployment it drops, which is
one large cyclic graph, with one full ``gc.collect()``.

:func:`repro.perf.time_callable` shares the pause. It lives here so that
importing the runner does not import the timing harness.
"""

from __future__ import annotations

import contextlib
import gc
import typing


@contextlib.contextmanager
def collector_paused() -> typing.Iterator[None]:
    """Pause automatic cyclic garbage collection for the ``with`` block.

    The caller's :func:`gc.isenabled` state is restored on the way out,
    also when the block raises, and a caller that had the collector
    disabled finds it still disabled. Explicit :func:`gc.collect` calls
    still run inside the block.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
