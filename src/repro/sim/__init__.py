"""Deterministic discrete-event simulation kernel.

This package provides the simulation substrate used by every other part of
the reproduction: a two-lane event loop of ``schedule`` callbacks
(:class:`~repro.sim.kernel.Simulator`), FIFO stores and counted
resources whose waiters are callbacks (:mod:`repro.sim.stores`,
:mod:`repro.sim.resources`) and seeded random-number streams
(:mod:`repro.sim.rng`). Every node loop, CPU job and Corda flow is a
chain of callbacks on one queue; there are no coroutine processes.

The kernel is written from scratch (no simpy dependency) and is fully
deterministic: two runs with the same seed produce identical event orders.
"""

from repro.sim.kernel import SimulationError, Simulator, TimerHandle
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry
from repro.sim.stores import Store

__all__ = [
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Store",
    "TimerHandle",
]
