"""Corda Open Source — block-free UTXO flows with a notary.

Corda has no blocks and no global ordering (Section 2): a *flow* on the
initiating node builds a transaction over input/output states, collects
a signature from every other node (serially, in Corda OS — the paper's
reason (2) for its weak performance), asks the notary to check the
inputs for double spends, and finally broadcasts the signed transaction
for every node to record. The client's confirmation arrives once all
nodes have recorded it.

Paper behaviours that emerge from this model:

* Reads iterate the vault (reason (1) of Section 5.1): a KeyValue-Get
  flow costs ``scan_cost * len(vault)``, which after the Set phase
  exceeds the flow timeout — every Get fails, exactly as reported.
* Corda OS degrades under load: flow service time scales with the
  recent submission rate (checkpointing pressure), reproducing the drop
  from 4.08 MTPS at RL=20 to ~1 MTPS at RL=160.
* Chained SendPayments race for the same account states, so the notary
  rejects most of them as double spends.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.chains.base import BaseNode, SystemModel
from repro.iel.base import StateInterface
from repro.net import Endpoint, Message
from repro.sim.resources import Resource
from repro.storage import Payload, Transaction, TxStatus
from repro.storage.utxo import StateRef

#: Notary signing service time and parallelism (overridden by Enterprise).
NOTARY_SERVICE_TIME = 0.04
NOTARY_WORKERS = 1

#: Flows that run longer than this are aborted (client-side timeout).
FLOW_TIMEOUT = 30.0

#: Window for the Corda OS submission-rate estimate driving degradation.
RATE_WINDOW = 10.0

#: Initiator-side time to process one counterparty's signature response
#: (parallel collection still pays this per counterparty).
SIGNATURE_RESPONSE_COST = 0.012


@dataclasses.dataclass
class VaultEntry:
    """The current unconsumed state behind one key."""

    ref: StateRef
    value: object


class VaultAdapter(StateInterface):
    """IEL state access backed by a Corda vault.

    Reads are linear scans over the whole vault (H2 via the state
    machine, not native queries — Section 5.1 reason (1)); writes create
    output states, consuming the previous state of an existing key.
    """

    def __init__(self, vault: typing.Dict[str, VaultEntry]) -> None:
        super().__init__()
        self.vault = vault
        self.outputs: typing.List[typing.Tuple[str, object]] = []
        self.consumed: typing.List[StateRef] = []

    def get(self, key: str) -> typing.Optional[object]:
        self.reads += 1
        self.work += max(1.0, float(len(self.vault)))  # full vault scan
        entry = self.vault.get(key)
        return entry.value if entry else None

    def put(self, key: str, value: object) -> None:
        self.writes += 1
        self.work += 1.0
        entry = self.vault.get(key)
        if entry is not None:
            self.consumed.append(entry.ref)
        self.outputs.append((key, value))


class CordaNode(BaseNode):
    """One Corda node: vault plus a bounded flow-worker pool."""

    def __init__(self, system: "CordaSystemBase", node_id: str) -> None:
        super().__init__(system, node_id)
        self.vault: typing.Dict[str, VaultEntry] = {}
        self.flow_pool = Resource(
            self.sim, capacity=self.profile.flow_workers, name=f"{node_id}-flows"
        )
        self._arrival_times: typing.Deque[float] = collections.deque()
        self.flows_started = 0
        self.flows_timed_out = 0
        self.notary_rejections = 0

    def record_arrival(self) -> float:
        """Track a submission; returns the current arrivals/second rate."""
        now = self.sim.now
        self._arrival_times.append(now)
        while self._arrival_times and now - self._arrival_times[0] > RATE_WINDOW:
            self._arrival_times.popleft()
        return len(self._arrival_times) / RATE_WINDOW

    def degradation(self) -> float:
        """Service-time multiplier under load (1.0 when knee disabled)."""
        knee = self.profile.overload_knee
        if knee <= 0:
            return 1.0
        now = self.sim.now
        while self._arrival_times and now - self._arrival_times[0] > RATE_WINDOW:
            self._arrival_times.popleft()
        rate = len(self._arrival_times) / RATE_WINDOW
        return 1.0 + rate / knee

    def record_transaction(
        self,
        tx_id: str,
        outputs: typing.Sequence[typing.Tuple[str, object]],
        consumed: typing.Sequence[StateRef],
    ) -> None:
        """Apply a finalized transaction to this node's vault."""
        consumed_set = set(consumed)
        if consumed_set:
            stale = [key for key, entry in self.vault.items() if entry.ref in consumed_set]
            for key in stale:
                del self.vault[key]
        for index, (key, value) in enumerate(outputs):
            self.vault[key] = VaultEntry(ref=StateRef(tx_id, index), value=value)
        checker = self.sim.checker
        if checker.enabled:
            checker.on_vault_record(self.endpoint_id, tx_id, outputs, consumed)


class CordaNotary(Endpoint):
    """One notary instance of the cluster (Table 4: one per server).

    The instances share the uniqueness service's spent-state set; the
    check-and-mark runs inside a shared mutual exclusion plus a small
    ``cluster_commit_latency`` modelling the cluster's internal
    agreement, so two instances racing for the same state still produce
    exactly one winner.
    """

    def __init__(
        self,
        system: "CordaSystemBase",
        notary_id: str,
        workers: int,
        service_time: float,
        spent: typing.Set[StateRef],
        uniqueness_lock: Resource,
        cluster_commit_latency: float = 0.004,
    ) -> None:
        if service_time < 0:
            raise ValueError(f"negative service_time: {service_time}")
        super().__init__(notary_id)
        self.system = system
        self.sim = system.sim
        self.service_time = service_time
        self.pool = Resource(self.sim, capacity=workers, name=f"{notary_id}-workers")
        self.spent = spent
        self.uniqueness_lock = uniqueness_lock
        self.cluster_commit_latency = cluster_commit_latency
        self.accepted = 0
        self.rejected = 0
        self.stopped = False

    def on_crash(self) -> None:
        """The spent-state set is shared and durable: a restarted notary
        still rejects double spends notarised before the crash."""
        self.stopped = True

    def on_restart(self) -> None:
        self.stopped = False

    def on_message(self, message: Message) -> None:
        if message.kind != "corda/notarise":
            raise AssertionError(f"notary got unexpected {message.kind!r}")
        self.sim.schedule(0.0, self.pool.request, self._sign, message)

    def _sign(self, message: Message) -> None:
        """A worker took the request: sign, then enter the uniqueness
        service."""
        self.sim.resume_after(
            self.service_time, self.uniqueness_lock.request, self._agree, message
        )

    def _agree(self, message: Message) -> None:
        if self.cluster_commit_latency > 0:
            self.sim.resume_after(self.cluster_commit_latency, self._check_and_mark, message)
        else:
            self._check_and_mark(message)

    def _check_and_mark(self, message: Message) -> None:
        """The atomic double-spend check: reject a request if any input
        is spent, else mark them all; then free the lock and the worker,
        and reply."""
        request = typing.cast(dict, message.payload)
        conflicts = [ref for ref in request["consumed"] if ref in self.spent]
        if conflicts:
            self.rejected += 1
            ok = False
        else:
            self.spent.update(request["consumed"])
            self.accepted += 1
            ok = True
        checker = self.sim.checker
        if checker.enabled:
            checker.on_notarise(
                self.endpoint_id, request["tx_id"], list(request["consumed"]), ok,
            )
        self.uniqueness_lock.release()
        self.pool.release()
        self.send(
            message.src,
            "corda/notarise_reply",
            {"tx_id": request["tx_id"], "ok": ok},
        )


class CordaSystemBase(SystemModel):
    """Shared machinery of the two Corda editions."""

    engine_prefixes = ()
    stabilization_time = 0.0
    #: Whether counterparties sign serially (OS) or in parallel (Ent).
    serial_signing = True
    notary_workers = NOTARY_WORKERS
    notary_service_time = NOTARY_SERVICE_TIME

    def default_params(self) -> typing.Dict[str, object]:
        # Corda exposes no block-size/-time parameters (Section 4.4).
        # RequiredSigners=None reproduces the paper's setup (every node
        # signs every transaction); an integer k explores the Section 6
        # hypothesis that subset signing would let Corda scale ("in a
        # network that consists of many peers, where only a small subset
        # of nodes need to sign, Corda could achieve higher performance
        # than Fabric").
        return {"FlowTimeout": FLOW_TIMEOUT, "RequiredSigners": None}

    def signing_counterparties(self, initiator_id: str) -> typing.List[str]:
        """The nodes that must counter-sign a flow from ``initiator_id``."""
        others = [nid for nid in self.node_ids if nid != initiator_id]
        required = self.params.get("RequiredSigners")
        if required is None:
            return others
        count = int(typing.cast(int, required))
        if count < 0:
            raise ValueError(f"RequiredSigners must be >= 0, got {count}")
        return others[: min(count, len(others))]

    def make_node(self, node_id: str) -> CordaNode:
        return CordaNode(self, node_id)

    def build(self) -> None:
        # One notary instance per server (Table 4), all sharing one
        # uniqueness service.
        shared_spent: typing.Set[StateRef] = set()
        uniqueness_lock = Resource(self.sim, capacity=1, name=f"{self.name}-uniqueness")
        self.notaries: typing.List[CordaNotary] = []
        for index, host in enumerate(self.server_hosts):
            notary = CordaNotary(
                self,
                f"{self.name}-notary{index}",
                workers=self.notary_workers,
                service_time=self.notary_service_time,
                spent=shared_spent,
                uniqueness_lock=uniqueness_lock,
            )
            self.network.attach(notary, host)
            self.notaries.append(notary)
        #: (tx_id, kind) -> the flow awaiting that reply.
        self._pending_replies: typing.Dict[typing.Tuple[str, str], _Flow] = {}

    @property
    def notary(self) -> CordaNotary:
        """The first notary instance (compatibility accessor)."""
        return self.notaries[0]

    def notary_for(self, node_id: str) -> CordaNotary:
        """The notary instance co-located with a node's server."""
        index = self.node_ids.index(node_id)
        return self.notaries[index % len(self.notaries)]

    @property
    def notary_accepted(self) -> int:
        """Cluster-wide accepted notarisations."""
        return sum(n.accepted for n in self.notaries)

    @property
    def notary_rejected(self) -> int:
        """Cluster-wide double-spend rejections."""
        return sum(n.rejected for n in self.notaries)

    def start(self) -> None:
        self.started = True  # flows are demand-driven; nothing to arm

    def engine_of(self, endpoint_id: str) -> typing.Optional[object]:
        for notary in self.notaries:
            if notary.endpoint_id == endpoint_id:
                return notary
        return super().engine_of(endpoint_id)

    def leader_id(self) -> typing.Optional[str]:
        """Corda has no consensus leader; the closest coordinating role
        is the notary cluster, so "kill the leader" targets its first
        instance."""
        return self.notaries[0].endpoint_id

    # ------------------------------------------------------------------
    # Flow plumbing

    def resolve_reply(self, tx_id: str, kind: str, value: object) -> None:
        """Hand a reply to the flow waiting on it (no-op when none is)."""
        flow = self._pending_replies.pop((tx_id, kind), None)
        if flow is not None:
            flow.reply(value)

    def handle_node_message(self, node: BaseNode, message: Message) -> None:
        corda_node = typing.cast(CordaNode, node)
        if message.kind == "corda/sign_request":
            request = typing.cast(dict, message.payload)
            # The counterparty checks and signs; cost is part of the
            # calibrated flow time, the wire round trip is real.
            self.sim.schedule(
                self.profile.signing_cost * corda_node.degradation(),
                node.send, message.src, "corda/sign_reply", {"tx_id": request["tx_id"]},
            )
        elif message.kind == "corda/sign_reply":
            request = typing.cast(dict, message.payload)
            self.resolve_reply(request["tx_id"], f"sign:{message.src}", True)
        elif message.kind == "corda/notarise_reply":
            request = typing.cast(dict, message.payload)
            self.resolve_reply(request["tx_id"], "notarise", request["ok"])
        elif message.kind == "corda/record":
            request = typing.cast(dict, message.payload)
            corda_node.record_transaction(
                request["tx_id"], request["outputs"], request["consumed"]
            )
            self.record_commit(request["tx_id"], node.endpoint_id)
        else:
            super().handle_node_message(node, message)

    # ------------------------------------------------------------------
    # Submission -> flow

    def handle_submit(self, node: BaseNode, message: Message) -> None:
        corda_node = typing.cast(CordaNode, node)
        transaction = typing.cast(Transaction, message.payload)
        corda_node.record_arrival()
        capacity = self.profile.mempool_capacity
        if capacity is not None and corda_node.flow_pool.queued >= capacity:
            corda_node.reject_client(
                message.src,
                [p.payload_id for p in transaction.payloads],
                "flow backlog full",
            )
            return
        self.remember_owner(transaction.payloads)
        flow = _Flow(self, corda_node, message.src, transaction)
        self.sim.schedule(0.0, corda_node.flow_pool.request, flow.start)

    def _flow_service_time(self, node: CordaNode, payload: Payload, scan_work: float) -> float:
        """Local execution + signature collection time for one flow."""
        profile = self.profile
        execute = profile.execute_cost * profile.function_multiplier(payload.function)
        counterparties = len(self.signing_counterparties(node.endpoint_id))
        if self.serial_signing:
            # Corda OS signs with each counterparty one after the other.
            signing = profile.signing_cost * counterparties
        else:
            # Enterprise overlaps the waves but still processes each
            # counterparty's response on the initiator.
            signing = profile.signing_cost + SIGNATURE_RESPONSE_COST * counterparties
        scans = profile.scan_cost * scan_work
        return (execute + signing + scans) * node.degradation()


class _Flow:
    """One Corda flow, run as callbacks with one method per step.

    A flow holds a worker of its node's flow pool from :meth:`start`
    until it ends, and every way out of it releases the worker. Each
    reply wait is :meth:`_wait`. The steps make the ``schedule`` calls
    of a generator flow waiting on events, hop for hop (DESIGN §10).
    """

    __slots__ = (
        "system", "node", "client_id", "transaction", "adapter", "result", "signers",
        "next_signer", "kinds", "then", "all_of", "remaining", "value", "settled", "timer",
    )

    def __init__(
        self, system: "CordaSystemBase", node: CordaNode, client_id: str,
        transaction: Transaction,
    ) -> None:
        self.system = system
        self.node = node
        self.client_id = client_id
        self.transaction = transaction
        self.next_signer = 0

    def start(self) -> None:
        """A flow worker is granted: execute, then spend the service time."""
        system, node = self.system, self.node
        node.flows_started += 1
        payload = self.transaction.payloads[0]
        # Execute the IEL against the vault to learn outputs/inputs.
        adapter = self.adapter = VaultAdapter(node.vault)
        self.result = node.iel.execute(payload, adapter)
        scan_work = adapter.work - adapter.writes  # scans only
        service = system._flow_service_time(node, payload, scan_work)
        timeout = float(system.params["FlowTimeout"])
        if service > timeout:
            node.flows_timed_out += 1
            system.sim.resume_after(timeout, self._end, "flow timed out")
        else:
            system.sim.resume_after(service, self._executed)

    def _executed(self) -> None:
        if not self.result.ok:
            self._end(self.result.error)
            return
        # Serial signing means the waves happen one after another on
        # the wire too; parallel signing overlaps them. The service
        # time above covers CPU; here we pay the network round trips.
        system = self.system
        self.signers = system.signing_counterparties(self.node.endpoint_id)
        if system.serial_signing:
            self._sign_next()
            return
        for other in self.signers:
            self.node.send(other, "corda/sign_request", {"tx_id": self.transaction.tx_id})
        self._wait([f"sign:{other}" for other in self.signers], _Flow._notarise, all_of=True)

    def _sign_next(self, signed: object = None) -> None:
        """Serial signing: ask the next counterparty, or notarise."""
        if self.next_signer == len(self.signers):
            self._notarise()
            return
        other = self.signers[self.next_signer]
        self.next_signer += 1
        self.node.send(other, "corda/sign_request", {"tx_id": self.transaction.tx_id})
        self._wait([f"sign:{other}"], _Flow._sign_next)

    def _notarise(self, signed: object = None) -> None:
        """The double-spend check, at the notary of the node's server."""
        node = self.node
        node.send(
            self.system.notary_for(node.endpoint_id).endpoint_id,
            "corda/notarise",
            {"tx_id": self.transaction.tx_id, "consumed": list(self.adapter.consumed)},
        )
        self._wait(["notarise"], _Flow._notarised)

    def _notarised(self, ok: object) -> None:
        system, node, transaction = self.system, self.node, self.transaction
        if not ok:
            node.notary_rejections += 1
            self._end("notary double spend")
            return
        # Finality: every node records the transaction.
        outcome = {transaction.payloads[0].payload_id: (TxStatus.COMMITTED, "")}
        system.stage_finality(transaction.tx_id, outcome, None)
        record = {
            "tx_id": transaction.tx_id,
            "outputs": list(self.adapter.outputs),
            "consumed": list(self.adapter.consumed),
        }
        for node_id in system.node_ids:
            if node_id == node.endpoint_id:
                node.record_transaction(record["tx_id"], record["outputs"], record["consumed"])
                system.record_commit(record["tx_id"], node_id)
            else:
                node.send(node_id, "corda/record", record, size_bytes=transaction.size_bytes)
        self._end()

    def _end(self, reason: typing.Optional[str] = None) -> None:
        """Reject the payload for ``reason``, if given, and free the worker."""
        if reason is not None:
            self.node.reject_client(
                self.client_id, [self.transaction.payloads[0].payload_id], reason
            )
        self.node.flow_pool.release()

    # ------------------------------------------------------------------
    # Reply waits

    def _wait(
        self, kinds: typing.List[str], then: typing.Callable[["_Flow", object], None],
        all_of: bool = False,
    ) -> None:
        """Wait for one reply per kind, then run ``then(self, value)``.

        ``then`` is a plain function, not a method bound to the flow,
        which would be a reference cycle through :attr:`then`.

        The flow goes on one hop after the reply arrives. With
        ``all_of`` each reply is counted in a hop of its own, and the
        flow goes on one hop after the last count (the hops of an
        ``AllOf``). Under fault injection a ``FlowTimeout`` timer races
        the replies, as ``AnyOf([wait, Timeout])`` did: whichever fires
        first settles the wait one hop later (:meth:`_settle`), and one
        hop after that the flow goes on, or gives up if the timer won
        (:meth:`_resume`). A crashed counterparty or notary never
        replies, which would otherwise pin the flow and its worker
        forever. The timer is cancelled once the wait settles, so a
        timer the replies beat never fires. Healthy runs arm no timer.
        """
        system = self.system
        tx_id = self.transaction.tx_id
        for kind in kinds:
            system._pending_replies[(tx_id, kind)] = self
        self.kinds = kinds
        self.then = then
        self.all_of = all_of
        self.remaining = len(kinds)
        if all_of and not kinds:
            system.sim.schedule(0.0, self._all_replied)
        if system.fault_mode:
            self.settled = False
            sim = system.sim
            self.timer = sim.schedule_cancellable(
                float(system.params["FlowTimeout"]), sim.schedule, 0.0, self._settle
            )

    def reply(self, value: object) -> None:
        """One of the awaited replies arrived."""
        sim = self.system.sim
        if self.all_of:
            sim.schedule(0.0, self._count_reply)
            return
        self.remaining = 0
        self.value = value
        if self.system.fault_mode:
            sim.schedule(0.0, self._settle)
        else:
            sim.schedule(0.0, self.then, self, value)

    def _count_reply(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self._all_replied()

    def _all_replied(self) -> None:
        if not self.system.fault_mode:
            self.system.sim.schedule(0.0, self.then, self, None)
        elif self.then is not None:  # None once the flow gave up
            self.system.sim.schedule(0.0, self._settle)

    def _settle(self) -> None:
        """The replies or the flow timer fired: the first to get here
        settles the wait and cancels the timer (a no-op once it fired);
        a later one does nothing."""
        if not self.settled:
            self.settled = True
            self.timer.cancel()
            self.system.sim.schedule(0.0, self._resume, self.remaining == 0)

    def _resume(self, replied: bool) -> None:
        if replied:
            self.then(self, None if self.all_of else self.value)
            return
        # The timer won: forget the replies still awaited and fail the flow.
        pending = self.system._pending_replies
        for kind in self.kinds:
            pending.pop((self.transaction.tx_id, kind), None)
        self.then = None
        self.node.flows_timed_out += 1
        self.node.reject_client(
            self.client_id, [p.payload_id for p in self.transaction.payloads], "flow timed out"
        )
        self.node.flow_pool.release()


class CordaOsSystem(CordaSystemBase):
    """Corda Open Source: serial signing, one flow worker, slow vault."""

    name = "corda_os"
    serial_signing = True
    notary_workers = 1
    notary_service_time = NOTARY_SERVICE_TIME
