"""Workload generation for the three benchmark units.

The legacy (paper) layout: every workload thread owns a disjoint
key/account space so the KeyValue benchmark never writes duplicate keys
(Section 4.1). Later phases of a unit replay the earlier phases'
identifiers: Get reads the keys Set wrote, SendPayment moves money
between consecutively created accounts (account_n -> account_{n+1} —
the serialisability stressor), Balance checks the accounts in order.

A non-default :class:`~repro.workloads.WorkloadSpec` swaps either axis:
an access distribution draws write identifiers from a fixed key
universe (per client, or one shared universe across all clients) so
writes genuinely collide, and read-type operations draw — through the
same distribution — from the history of identifiers this client has
already written, so reads are skewed but never miss. An operation mix
replaces the phase's single function with a weighted draw. All
randomness comes from per-thread ``workloads/...`` RNG streams created
lazily, so spec-free runs never touch them.
"""

from __future__ import annotations

import random
import typing

from repro.storage.transaction import Args
from repro.workloads.access import Sampler, build_sampler
from repro.workloads.mixes import READ_FALLBACK, MixSampler
from repro.workloads.spec import DEFAULT_WORKLOAD, ResolvedPhase, WorkloadSpec

#: Operations that write an identifier other operations can later read.
_WRITES: typing.Tuple[str, ...] = ("Set", "Rmw", "CreateAccount")


class WorkloadPlan:
    """Deterministic argument streams for one client's workload threads."""

    def __init__(
        self,
        client_id: str,
        threads: int,
        spec: typing.Optional[WorkloadSpec] = None,
        rng_streams: typing.Optional[
            typing.Callable[[str], random.Random]
        ] = None,
    ) -> None:
        if threads < 1:
            raise ValueError(f"need at least one workload thread, got {threads}")
        self.client_id = client_id
        self.threads = threads
        self.spec = spec or DEFAULT_WORKLOAD
        self._rng_streams = rng_streams
        self._counters: typing.Dict[typing.Tuple[int, str], int] = {}
        #: Identifiers written by this client, in write order (rank 0 is
        #: the zipfian-hottest item). Shared across threads so reads see
        #: every thread's writes; per-client even under a shared key
        #: universe, so a client never reads a key it cannot know exists.
        self._history: typing.List[str] = []
        self._mix_samplers: typing.Dict[str, MixSampler] = {}
        self._access_samplers: typing.Dict[str, Sampler] = {}
        self._gen_rngs: typing.Dict[int, random.Random] = {}
        #: phase -> resolved arrival/access/mix. ``for_phase`` is pure
        #: over a frozen spec, but it allocates per call and sits on the
        #: per-payload path; one resolution per phase is enough.
        self._resolved: typing.Dict[str, ResolvedPhase] = {}

    # ------------------------------------------------------------------
    # Legacy disjoint streams

    def _next_index(self, thread: int, phase: str) -> int:
        key = (thread, phase)
        index = self._counters.get(key, 0) + 1
        self._counters[key] = index
        return index

    def _key(self, thread: int, index: int) -> str:
        """A disjoint key name, as :meth:`_legacy_pairs` writes it."""
        return f"{self.client_id}:t{thread}:k{index}"

    def _account(self, thread: int, index: int) -> str:
        """A disjoint account name, as :meth:`_legacy_pairs` writes it."""
        return f"{self.client_id}:t{thread}:a{index}"

    def _legacy_pairs(self, iel: str, phase: str, thread: int) -> Args:
        """The legacy generator: the next payload's arguments as the
        canonical pairs :attr:`~repro.storage.Payload.args` stores, each
        tuple written out in sorted name order."""
        if not 0 <= thread < self.threads:
            raise IndexError(f"thread {thread} out of range 0..{self.threads - 1}")
        # The counter and the names are written out here, not through
        # _next_index, _key and _account: this runs once per offered
        # payload, and the calls would double its Python calls.
        counters = self._counters
        key = (thread, phase)
        index = counters.get(key, 0) + 1
        counters[key] = index
        if iel == "DoNothing":
            return ()
        if iel == "KeyValue":
            if phase == "Set":
                return (("key", f"{self.client_id}:t{thread}:k{index}"), ("value", f"value-{index}"))
            if phase == "Get":
                return (("key", f"{self.client_id}:t{thread}:k{index}"),)
        if iel == "BankingApp":
            if phase == "CreateAccount":
                return (
                    ("account", f"{self.client_id}:t{thread}:a{index}"),
                    ("checking", 1_000),
                    ("saving", 500),
                )
            if phase == "SendPayment":
                # account_n pays account_{n+1}: consecutive payments share
                # an account, producing overwriting transactions within a
                # block (or consumed states on Corda) — Section 4.1.
                return (
                    ("amount", 1),
                    ("destination", f"{self.client_id}:t{thread}:a{index + 1}"),
                    ("source", f"{self.client_id}:t{thread}:a{index}"),
                )
            if phase == "Balance":
                return (("account", f"{self.client_id}:t{thread}:a{index}"),)
        raise ValueError(f"no workload for IEL {iel!r} phase {phase!r}")

    def args_for(self, iel: str, phase: str, thread: int) -> typing.Dict[str, object]:
        """The next payload's arguments for one thread in one phase, as a
        dict, from the legacy generator whatever the spec.

        It advances the same counter as :meth:`payload_for`, whose pairs
        under the default spec are the sorted items of this dict.
        """
        return dict(self._legacy_pairs(iel, phase, thread))

    # ------------------------------------------------------------------
    # Spec-driven streams

    def _gen_rng(self, thread: int) -> random.Random:
        """This thread's payload-generation stream, created lazily."""
        if thread not in self._gen_rngs:
            if self._rng_streams is None:
                raise ValueError(
                    f"workload {self.spec!r} needs randomness but the plan "
                    "was built without RNG streams"
                )
            self._gen_rngs[thread] = self._rng_streams(
                f"workloads/{self.client_id}/t{thread}"
            )
        return self._gen_rngs[thread]

    def _choose_function(
        self, resolved: ResolvedPhase, phase: str, thread: int
    ) -> str:
        if resolved.mix is None:
            return phase
        if phase not in self._mix_samplers:
            self._mix_samplers[phase] = MixSampler(resolved.mix)
        function = self._mix_samplers[phase].sample(self._gen_rng(thread))
        if not self._history and function in READ_FALLBACK:
            return READ_FALLBACK[function]
        return function

    def _sampler(self, phase: str, resolved: ResolvedPhase) -> Sampler:
        if phase not in self._access_samplers:
            self._access_samplers[phase] = build_sampler(resolved.access)
        return self._access_samplers[phase]

    def _write_key(self, resolved: ResolvedPhase, phase: str, thread: int) -> str:
        """A write target drawn from the spec's key universe."""
        sampler = self._sampler(phase, resolved)
        index = sampler.sample(self._gen_rng(thread), resolved.access.key_space)
        prefix = "shared" if resolved.access.shared else self.client_id
        return f"{prefix}:k{index}"

    def _read_key(
        self, resolved: ResolvedPhase, phase: str, thread: int, seq: int
    ) -> str:
        """A read target drawn from this client's written history."""
        if not self._history:
            raise ValueError(
                f"phase {phase!r} reads before any write; run the unit's "
                "write phase first or add a write share to the mix"
            )
        if resolved.access.kind == "disjoint":
            # No RNG under disjoint access: cycle the history in order,
            # mirroring the legacy replay-the-write-phase behaviour.
            return self._history[(seq - 1) % len(self._history)]
        sampler = self._sampler(phase, resolved)
        index = sampler.sample(self._gen_rng(thread), len(self._history))
        return self._history[index]

    def _spec_args(
        self,
        iel: str,
        resolved: ResolvedPhase,
        function: str,
        phase: str,
        thread: int,
        seq: int,
    ) -> typing.Dict[str, object]:
        if iel == "DoNothing":
            return {}
        if iel == "KeyValue":
            if function in ("Set", "Rmw"):
                if resolved.access.kind == "disjoint":
                    key = self._key(thread, seq)
                else:
                    key = self._write_key(resolved, phase, thread)
                self._history.append(key)
                return {"key": key, "value": f"value-{seq}"}
            if function == "Get":
                return {"key": self._read_key(resolved, phase, thread, seq)}
        if iel == "BankingApp":
            if function == "CreateAccount":
                # Accounts are created once, so creation always uses the
                # sequential disjoint naming; the *other* operations skew.
                account = self._account(thread, seq)
                self._history.append(account)
                return {"account": account, "checking": 1_000, "saving": 500}
            if function == "SendPayment":
                source = self._read_key(resolved, phase, thread, seq)
                destination = self._read_key(resolved, phase, thread, seq)
                if destination == source and len(self._history) > 1:
                    at = (self._history.index(source) + 1) % len(self._history)
                    destination = self._history[at]
                return {"source": source, "destination": destination, "amount": 1}
            if function == "Balance":
                return {"account": self._read_key(resolved, phase, thread, seq)}
        raise ValueError(f"no workload for IEL {iel!r} operation {function!r}")

    def payload_for(self, iel: str, phase: str, thread: int) -> typing.Tuple[str, Args]:
        """The next payload's ``(function, pairs)`` for one thread in one
        phase.

        ``pairs`` is the canonical ``((name, value), ...)`` tuple, sorted
        by name, that :attr:`~repro.storage.Payload.args` stores, so
        :meth:`~repro.storage.Payload.create` takes it without sorting.
        The default spec resolves to the legacy generator verbatim: the
        phase name is the function, the pairs are built literally in
        sorted order, and no RNG stream is ever created. A spec-driven
        draw builds a dict and sorts its items once, here.
        """
        resolved = self._resolved.get(phase)
        if resolved is None:
            resolved = self._resolved[phase] = self.spec.for_phase(phase)
        if resolved.mix is None and resolved.access.kind == "disjoint":
            return phase, self._legacy_pairs(iel, phase, thread)
        if not 0 <= thread < self.threads:
            raise IndexError(f"thread {thread} out of range 0..{self.threads - 1}")
        function = self._choose_function(resolved, phase, thread)
        seq = self._next_index(thread, phase)
        args = self._spec_args(iel, resolved, function, phase, thread, seq)
        return function, tuple(sorted(args.items()))

    def generated_count(self, phase: str) -> int:
        """Payloads generated so far in one phase, across threads."""
        return sum(
            count for (__, phase_name), count in self._counters.items() if phase_name == phase
        )
