"""The COCONUT client application.

One client (Section 4.3) runs four workload threads that send payload
bundles sequentially — without waiting for finalization confirmations —
for the send window, rate-limited to the configured payloads/second per
client. The client keeps listening for finalization notifications for a
grace period after sending stops and terminates at the total deadline.
All timestamps of Figure 2 are taken here, on the client: ``starttime``
just before a payload is sent, ``endtime`` when its confirmation (a
commit on *all* nodes) arrives.

While a payload is in flight the client keeps only its start time,
in a per-phase map from payload id to start time. The moment it
resolves, its contribution is folded into the phase's
:class:`~repro.stream.accumulator.PhaseAccumulator` and the entry is
dropped; a :class:`~repro.stream.spill.PayloadRecord` is built only
when the stream has a sink attached. Client memory is therefore
bounded by the payloads in flight, not by the offered load.
"""

from __future__ import annotations

import typing

from repro.coconut.bal import Driver, make_driver
from repro.coconut.config import BenchmarkConfig
from repro.coconut.workload import WorkloadPlan
from repro.net import Endpoint, Message
from repro.sim.kernel import Simulator
from repro.storage import Payload
from repro.storage.receipts import TxStatus
from repro.stream.accumulator import ClientStream
from repro.trace.tracer import Instruments
from repro.workloads.arrivals import build_schedule


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
        #: phase -> payload_id -> start time of the payloads still in
        #: flight; each resolves into ``self.stream`` and leaves the map.
        self.in_flight: typing.Dict[str, typing.Dict[str, float]] = {}
        #: payload_id -> phase of in-flight payloads, and of payloads that
        #: never resolved inside their window (so a late receipt is known).
        self._payload_phase: typing.Dict[str, str] = {}
        self._listen_deadline: typing.Dict[str, float] = {}
        self.ignored_late_receipts = 0
        #: The per-phase accumulators every metric is computed from.
        self.stream = ClientStream(client_id)
        self._trace = Instruments(
            "client",
            sent=("counter", "client.sent", "", client_id),
            received=("counter", "client.received", "", client_id),
            failed=("counter", "client.failed", "", client_id),
            fls=("histogram", "client.fls", "", client_id),
        )

    # ------------------------------------------------------------------
    # Driving a phase

    def run_phase(self, phase: str, start_at: float) -> None:
        """Launch the phase's workload threads.

        The threads stop at the send deadline; receipts count until the
        listen deadline, and the runner ends the phase at the total
        deadline.
        """
        config = self.config
        self.in_flight.setdefault(phase, {})
        self.stream.begin_phase(phase)
        send_deadline = start_at + config.scaled_send
        self._listen_deadline[phase] = start_at + config.scaled_listen
        for thread in range(config.workload_threads):
            worker = _WorkloadThread(self, phase, thread, start_at, send_deadline)
            self.sim.schedule(0.0, worker.start)

    # ------------------------------------------------------------------
    # Event collection

    def on_message(self, message: Message) -> None:
        if message.kind == "client/receipt":
            record_end = self._record_end
            for receipt in message.payload:
                # Receipt.is_success, read once: INVALIDATED counts as
                # received (Section 5.4) and is flagged invalid.
                status = receipt.status
                if status is TxStatus.COMMITTED:
                    record_end(receipt.payload_id, "received")
                elif status is TxStatus.INVALIDATED:
                    record_end(receipt.payload_id, "received", True)
                else:
                    record_end(receipt.payload_id, "failed")
        elif message.kind == "client/reject":
            reject = message.payload
            for payload_id in reject.payload_ids:
                self._record_end(payload_id, "failed")

    def _record_end(self, payload_id: str, status: str, invalid: bool = False) -> None:
        phase = self._payload_phase.get(payload_id)
        if phase is None:
            return
        sim = self.sim
        now = sim.now
        tracer = sim.tracer
        # run_phase set the deadline of every phase a payload was sent in.
        if now > self._listen_deadline[phase]:
            self.ignored_late_receipts += 1
            if tracer.enabled:
                tracer.end(("tx", payload_id), status="late")
            return
        start_time = self.in_flight[phase].pop(payload_id, None)
        if start_time is None:
            # Already expired at phase teardown.
            return
        del self._payload_phase[payload_id]
        if tracer.enabled:
            tracer.end(("tx", payload_id), status=status)
            trace = self._trace.bind(tracer)
            if trace.wanted:
                getattr(trace, status).inc()
                trace.fls.record(now - start_time)
        # The payload's contribution is folded into the phase accumulator
        # and its entry is dropped: the in-flight map tracks payloads in
        # flight, not offered load. Only a sink needs the stream's
        # resolve, which also spills the payload's record.
        stream = self.stream
        if stream.sink is None:
            stream.accumulators[phase].on_resolve(start_time, now, status, invalid)
        else:
            stream.resolve(phase, payload_id, start_time, now, status, invalid)

    # ------------------------------------------------------------------
    # Phase teardown

    def finish_phase(self, phase: str) -> int:
        """Spill and drop the phase's still-pending payloads.

        Called by the runner after the phase's metrics are taken. Any
        entry left is a payload that never resolved inside the listen
        window; it already counts in ``sent`` (and as an in-window loss
        when resilience is armed), so it only needs spilling — keeping
        it would grow memory phase over phase. The payload's id stays
        mapped to its phase, so a receipt that arrives after teardown
        is still counted (and traced) as late. Returns how many payloads
        were dropped.
        """
        leftover = self.in_flight.get(phase)
        if not leftover:
            return 0
        for payload_id, start_time in leftover.items():
            self.stream.expire(phase, payload_id, start_time)
        dropped = len(leftover)
        leftover.clear()
        return dropped


class _WorkloadThread:
    """One workload thread's send loop for one phase, run as callbacks.

    Each wait is :meth:`~repro.sim.kernel.Simulator.resume_after`: a
    timer that queues one ready-lane hop itself. With the start hop that
    :meth:`CoconutClient.run_phase` schedules, every send dispatches in
    the place a generator send loop's did (DESIGN §10).

    :meth:`start` binds what stays fixed for the run into slots: the
    IEL, the plan's ``payload_for``, the driver's group size and
    ``wrap``, and the gateway. A send then builds each payload from the
    plan's canonical argument pairs and wraps the group with no
    per-send lookups through the client's configuration or driver.
    """

    __slots__ = (
        "client", "sim", "phase", "thread", "start_at", "send_deadline", "schedule",
        "trace_txs", "in_flight", "accumulator",
        "iel", "payload_for", "group_size", "wrap", "gateway_id",
    )

    def __init__(
        self,
        client: CoconutClient,
        phase: str,
        thread: int,
        start_at: float,
        send_deadline: float,
    ) -> None:
        self.client = client
        self.sim = client.sim
        self.phase = phase
        self.thread = thread
        self.start_at = start_at
        self.send_deadline = send_deadline
        # The phase's in-flight map and accumulator never change identity.
        self.in_flight = client.in_flight[phase]
        self.accumulator = client.stream.accumulator(phase)

    def start(self) -> None:
        """The start hop: bind the run's constants, build the arrival
        schedule, wait for the phase."""
        client = self.client
        config = client.config
        sim = self.sim
        driver = client.driver
        self.iel = config.iel
        self.payload_for = client.plan.payload_for
        self.group_size = driver.group_size
        self.wrap = driver.wrap
        self.gateway_id = client.gateway_id
        # Each thread carries its share of the client's rate limit; a
        # submission carries `group` payloads, so submissions are spaced
        # by group * threads / rate.
        interval = self.group_size * config.workload_threads / config.rate_limit
        endpoint_id = client.endpoint_id
        thread = self.thread
        self.schedule = build_schedule(
            client.plan.spec.for_phase(self.phase).arrival,
            interval,
            config.scaled_send,
            thread,
            config.workload_threads,
            lambda: sim.rng.stream(f"workloads/{endpoint_id}/t{thread}/arrival"),
        )
        # The tracer and its category filter are fixed for the run.
        tracer = sim.tracer
        self.trace_txs = tracer.enabled and client._trace.bind(tracer).wanted
        if sim.now < self.start_at:
            sim.resume_after(self.start_at - sim.now, self._begin)
        else:
            self._begin()

    def _begin(self) -> None:
        initial = self.schedule.initial_delay()
        if initial is None:
            return
        if initial > 0:
            # Only replay defers the first send; every other kind fires
            # at phase start exactly like the pre-workloads loop.
            self.sim.resume_after(initial, self._send)
        else:
            self._send()

    def _send(self) -> None:
        sim = self.sim
        now = sim.now
        if now >= self.send_deadline:
            return
        client = self.client
        endpoint_id = client.endpoint_id
        phase = self.phase
        thread = self.thread
        iel = self.iel
        payload_for = self.payload_for
        payloads = []
        for __ in range(self.group_size):
            function, args = payload_for(iel, phase, thread)
            payloads.append(Payload.create(endpoint_id, iel, function, args))
        self.accumulator.on_send(now, len(payloads))
        in_flight = self.in_flight
        payload_phase = client._payload_phase
        trace_txs = self.trace_txs
        tracer = sim.tracer
        for payload in payloads:
            payload_id = payload.payload_id
            in_flight[payload_id] = now
            payload_phase[payload_id] = phase
            if trace_txs and tracer.sampled(payload_id):
                # Submit -> confirm, closed in _record_end; payloads
                # that never confirm stay open (drained at export).
                tracer.begin(
                    ("tx", payload_id), "tx", category="client",
                    node=endpoint_id, phase=phase,
                )
        if trace_txs:
            client._trace.bind(tracer).sent.inc(len(payloads))
        client.stream.note_live(len(in_flight))
        bundle = self.wrap(payloads)
        client.send(self.gateway_id, "client/submit", bundle, bundle.size_bytes)
        delay = self.schedule.next_delay(sim.now - self.start_at)
        if delay is not None:
            sim.resume_after(delay, self._send)
