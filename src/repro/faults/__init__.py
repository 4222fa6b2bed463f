"""Declarative fault injection for the simulated deployments.

``repro.faults`` turns a JSON-serialisable :class:`FaultPlan` (timed
crash/restart/partition/loss/latency actions) into scheduled events a
:class:`FaultInjector` fires against a running system model, and
distils the client-side effect into a :class:`ResilienceReport`
(baseline vs dip throughput, time to recover, committed vs lost in the
fault window). Fault-free runs never construct an injector, draw from
its RNG stream or arm any defensive code path, so they stay
byte-identical with the subsystem present.

Names are imported on first use (PEP 562): the runner imports the
injector only for a unit with a fault plan.
"""

from repro._exports import lazy_exports

#: Public name -> the module that defines it, imported on first use.
_EXPORTS = {
    "ACTION_KINDS": "repro.faults.plan",
    "FaultAction": "repro.faults.plan",
    "FaultInjector": "repro.faults.injector",
    "FaultPlan": "repro.faults.plan",
    "ResilienceReport": "repro.faults.metrics",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
