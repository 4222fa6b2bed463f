"""Deterministic discrete-event simulation kernel.

This package provides the simulation substrate used by every other part of
the reproduction: a priority-queue event loop (:class:`~repro.sim.kernel.Simulator`),
generator-based processes (:class:`~repro.sim.process.Process`), triggerable
events and timeouts (:mod:`repro.sim.events`), FIFO stores and capacity
resources (:mod:`repro.sim.stores`, :mod:`repro.sim.resources`) and seeded
random-number streams (:mod:`repro.sim.rng`).

The kernel is written from scratch (no simpy dependency) and is fully
deterministic: two runs with the same seed produce identical event orders.
"""

from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.kernel import Simulator, TimerHandle
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry
from repro.sim.stores import Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "RngRegistry",
    "Simulator",
    "Store",
    "Timeout",
    "TimerHandle",
]
