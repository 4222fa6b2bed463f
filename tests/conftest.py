"""Suite-wide pytest hooks."""

import gc


def pytest_collection_finish(session):
    """Move the heap built while collecting (pytest, Hypothesis and every
    test module) out of the collector's reach.

    ``BenchmarkRunner`` runs full collections whenever it drops a rig,
    hundreds of times over the suite. Each pass would otherwise re-scan
    these long-lived objects, which are never garbage.
    """
    gc.collect()
    gc.freeze()
