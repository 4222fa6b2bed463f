"""The COCONUT client application.

One client (Section 4.3) runs four workload threads that send payload
bundles sequentially — without waiting for finalization confirmations —
for the send window, rate-limited to the configured payloads/second per
client. The client keeps listening for finalization notifications for a
grace period after sending stops and terminates at the total deadline.
All timestamps of Figure 2 are taken here, on the client: ``starttime``
just before a payload is sent, ``endtime`` when its confirmation (a
commit on *all* nodes) arrives.

A payload's record lives only while the payload is in flight: the
moment it resolves, its contribution is folded into the phase's
:class:`~repro.stream.accumulator.PhaseAccumulator` and the record is
retired (handed to the stream's sink, if one is attached). Client
memory is therefore bounded by the payloads in flight, not by the
offered load.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.coconut.bal import Driver, make_driver
from repro.coconut.config import BenchmarkConfig
from repro.coconut.workload import WorkloadPlan
from repro.net import Endpoint, Message
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.storage import Payload
from repro.storage.receipts import TxStatus
from repro.stream.accumulator import ClientStream
from repro.workloads.arrivals import build_schedule


@dataclasses.dataclass
class PayloadRecord:
    """The client-side life of one payload."""

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


class CoconutClient(Endpoint):
    """One COCONUT client application endpoint."""

    def __init__(
        self,
        client_id: str,
        sim: Simulator,
        config: BenchmarkConfig,
        gateway_id: str,
    ) -> None:
        super().__init__(client_id)
        self.sim = sim
        self.config = config
        self.gateway_id = gateway_id
        self.driver: Driver = make_driver(
            config.system,
            client_id,
            ops_per_transaction=config.ops_per_transaction,
            txs_per_batch=config.txs_per_batch,
        )
        self.plan = WorkloadPlan(
            client_id,
            config.workload_threads,
            spec=config.workload,
            rng_streams=sim.rng.stream,
        )
        #: phase -> payload_id -> record of the payloads still in flight;
        #: records retire into ``self.stream`` the moment they resolve.
        self.records: typing.Dict[str, typing.Dict[str, PayloadRecord]] = {}
        #: payload_id -> phase of in-flight payloads, and of payloads that
        #: never resolved inside their window (so a late receipt is known).
        self._payload_phase: typing.Dict[str, str] = {}
        self._listen_deadline: typing.Dict[str, float] = {}
        self.ignored_late_receipts = 0
        #: The per-phase accumulators every metric is computed from.
        self.stream = ClientStream(client_id)

    # ------------------------------------------------------------------
    # Driving a phase

    def run_phase(self, phase: str, start_at: float) -> Event:
        """Launch the phase's workload threads; fires at client shutdown."""
        config = self.config
        self.records.setdefault(phase, {})
        self.stream.begin_phase(phase)
        send_deadline = start_at + config.scaled_send
        self._listen_deadline[phase] = start_at + config.scaled_listen
        threads = [
            self.sim.spawn(
                self._workload_thread(phase, thread, start_at, send_deadline),
                name=f"{self.endpoint_id}-{phase}-t{thread}",
            )
            for thread in range(config.workload_threads)
        ]
        done = self.sim.event(name=f"{self.endpoint_id}-{phase}-done")
        shutdown_at = start_at + config.scaled_total
        # The threads stop at the send deadline; the client itself (and
        # its event listening) terminates at the total deadline.
        self.sim.schedule(max(0.0, shutdown_at - self.sim.now), done.succeed, threads)
        return done

    def _workload_thread(
        self, phase: str, thread: int, start_at: float, send_deadline: float
    ) -> typing.Generator:
        config = self.config
        group = self.driver.group_size
        # Each thread carries its share of the client's rate limit; a
        # submission carries `group` payloads, so submissions are spaced
        # by group * threads / rate.
        interval = group * config.workload_threads / config.rate_limit
        arrival = self.plan.spec.for_phase(phase).arrival
        schedule = build_schedule(
            arrival,
            interval,
            config.scaled_send,
            thread,
            config.workload_threads,
            lambda: self.sim.rng.stream(
                f"workloads/{self.endpoint_id}/t{thread}/arrival"
            ),
        )
        sim = self.sim
        if sim.now < start_at:
            yield sim.timeout(start_at - sim.now)
        initial = schedule.initial_delay()
        if initial is None:
            return
        if initial > 0:
            # Only replay defers the first send; every other kind fires
            # at phase start exactly like the pre-workloads loop.
            yield sim.timeout(initial)
        # Send-loop invariants hoisted out of the loop: the tracer and
        # its category filter are fixed for the run, the phase's record
        # dict and the plan/RNG-stream lookups never change identity.
        endpoint_id = self.endpoint_id
        iel = config.iel
        payload_for = self.plan.payload_for
        phase_records = self.records[phase]
        payload_phase = self._payload_phase
        wrap = self.driver.wrap
        tracer = sim.tracer
        trace_txs = tracer.enabled and tracer.wants("client")
        stream = self.stream
        accumulator = stream.accumulator(phase)
        while sim.now < send_deadline:
            payloads = []
            for __ in range(group):
                function, args = payload_for(iel, phase, thread)
                payloads.append(Payload.create(endpoint_id, iel, function, args))
            now = sim.now
            accumulator.on_send(now, count=len(payloads))
            for payload in payloads:
                payload_id = payload.payload_id
                phase_records[payload_id] = PayloadRecord(
                    payload_id=payload_id,
                    phase=phase,
                    start_time=now,
                )
                payload_phase[payload_id] = phase
                if trace_txs and tracer.sampled(payload_id):
                    # Submit -> confirm, closed in _record_end; payloads
                    # that never confirm stay open (drained at export).
                    tracer.begin(
                        ("tx", payload_id), "tx", category="client",
                        node=endpoint_id, phase=phase,
                    )
            if trace_txs:
                tracer.metrics.counter("client.sent", node=endpoint_id).inc(len(payloads))
            stream.note_live(len(phase_records))
            bundle = wrap(payloads)
            self.send(
                self.gateway_id,
                "client/submit",
                bundle,
                size_bytes=getattr(bundle, "size_bytes", 256),
            )
            delay = schedule.next_delay(sim.now - start_at)
            if delay is None:
                return
            yield sim.timeout(delay)

    # ------------------------------------------------------------------
    # Event collection

    def on_message(self, message: Message) -> None:
        if message.kind == "client/receipt":
            for receipt in message.payload:
                self._record_end(
                    receipt.payload_id,
                    "received" if receipt.is_success else "failed",
                    invalid=receipt.status is TxStatus.INVALIDATED,
                )
        elif message.kind == "client/reject":
            reject = message.payload
            for payload_id in reject.payload_ids:
                self._record_end(payload_id, "failed")

    def _record_end(self, payload_id: str, status: str, invalid: bool = False) -> None:
        phase = self._payload_phase.get(payload_id)
        if phase is None:
            return
        tracer = self.sim.tracer
        if self.sim.now > self._listen_deadline.get(phase, float("inf")):
            self.ignored_late_receipts += 1
            if tracer.enabled:
                tracer.end(("tx", payload_id), status="late")
            return
        record = self.records[phase].pop(payload_id, None)
        if record is None:
            # Already expired at phase teardown.
            return
        del self._payload_phase[payload_id]
        record.end_time = self.sim.now
        record.status = status
        record.invalid = invalid
        if tracer.enabled:
            tracer.end(("tx", payload_id), status=status)
            if tracer.wants("client"):
                tracer.metrics.counter(f"client.{status}", node=self.endpoint_id).inc()
                tracer.metrics.histogram("client.fls", node=self.endpoint_id).record(
                    record.latency
                )
        # The record's contribution is folded into the phase accumulator
        # and the record itself is dropped: live records track in-flight
        # payloads, not offered load.
        self.stream.retire(phase, record)

    # ------------------------------------------------------------------
    # Phase teardown

    def finish_phase(self, phase: str) -> int:
        """Spill and drop the phase's still-pending records.

        Called by the runner after the phase's metrics are taken. Any
        record left is a payload that never resolved inside the listen
        window; it already counts in ``sent`` (and as an in-window loss
        when resilience is armed), so it only needs spilling — keeping
        it would grow memory phase over phase. The payload's id stays
        mapped to its phase, so a receipt that arrives after teardown
        is still counted (and traced) as late. Returns how many records
        were dropped.
        """
        leftover = self.records.get(phase)
        if not leftover:
            return 0
        for record in leftover.values():
            self.stream.expire(phase, record)
        dropped = len(leftover)
        leftover.clear()
        return dropped
