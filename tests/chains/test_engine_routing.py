"""A node routes consensus traffic by its engine's ``message_kinds``.

``BaseNode.on_message`` hands a message to the engine when its kind is
in the engine's ``message_kinds``; any other kind goes to the system's
``handle_node_message``, which raises on kinds it does not know. So
every kind an engine sends must be listed, and no chain module may
name an engine-prefixed kind its engine does not list. Fabric's
orderers route the same way: envelopes first, then the kinds their
Raft engine lists.
"""

import ast
import inspect
import pathlib

import pytest

from repro.chains.base import ReplicaNode
from repro.chains.fabric import FabricEnvelope
from repro.consensus.diembft import DiemBftEngine
from repro.consensus.dpos import DposEngine
from repro.consensus.ibft import IbftEngine
from repro.consensus.pbft import PbftEngine
from repro.consensus.raft import RaftEngine
from repro.net import Message
from repro.storage import Payload, Transaction
from tests.chains.helpers import deploy

ENGINES = [IbftEngine, PbftEngine, DiemBftEngine, DposEngine, RaftEngine]
CHAINS_DIR = pathlib.Path(inspect.getfile(ReplicaNode)).parent


def sent_kinds(engine):
    """The kind argument of every ``send``/``broadcast`` call in the
    engine's module, failing on a kind that is not a string literal."""
    tree = ast.parse(inspect.getsource(inspect.getmodule(engine)))
    kinds = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        position = {"send": 1, "broadcast": 0}.get(node.func.attr)
        if position is None:
            continue
        kind = node.args[position]
        assert isinstance(kind, ast.Constant) and isinstance(kind.value, str), (
            f"{engine.__name__}: line {node.lineno} sends a computed kind"
        )
        kinds.add(kind.value)
    return kinds


def prefix_of(engine):
    (prefix,) = {kind.split("/", 1)[0] for kind in engine.message_kinds}
    return prefix


@pytest.mark.parametrize("engine", ENGINES, ids=lambda engine: engine.__name__)
def test_every_sent_kind_is_listed(engine):
    kinds = sent_kinds(engine)
    assert kinds, f"{engine.__name__} sends nothing?"
    assert kinds <= engine.message_kinds


@pytest.mark.parametrize("engine", ENGINES, ids=lambda engine: engine.__name__)
def test_chains_use_no_unlisted_engine_kind(engine):
    prefix = prefix_of(engine) + "/"
    for path in sorted(CHAINS_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.startswith(prefix) and node.value[len(prefix):].isidentifier():
                    assert node.value in engine.message_kinds, f"{path.name}: {node.value}"


@pytest.mark.parametrize(
    "system_name, engine",
    [("quorum", IbftEngine), ("sawtooth", PbftEngine), ("diem", DiemBftEngine),
     ("bitshares", DposEngine)],
)
def test_replicas_route_their_engines_kinds(system_name, engine):
    __, system, __ = deploy(system_name)
    node = system.nodes[system.node_ids[0]]
    assert isinstance(node.engine, engine)
    seen = []
    node.engine.on_message = lambda kind, sender, payload: seen.append(kind)
    for kind in sorted(engine.message_kinds):
        node.on_message(Message(system.node_ids[1], node.endpoint_id, kind, {}))
    assert seen == sorted(engine.message_kinds)


def test_unlisted_kind_falls_through_to_the_system():
    __, system, __ = deploy("quorum")
    node = system.nodes[system.node_ids[0]]
    with pytest.raises(NotImplementedError, match="ibft/unknown"):
        node.on_message(Message(system.node_ids[1], node.endpoint_id, "ibft/unknown", {}))


def test_fabric_peers_host_no_engine():
    __, system, __ = deploy("fabric")
    assert all(node.engine is None for node in system.nodes.values())


class TestOrdererRouting:
    """A Fabric orderer takes envelopes first and hands its Raft engine
    every kind the engine lists; any other kind is an error."""

    @staticmethod
    def orderer_of(system):
        orderer_id = system.orderer_ids[0]
        return orderer_id, system.orderers[orderer_id]

    @staticmethod
    def envelope():
        payload = Payload.create("c", "KeyValue", "Set", {"key": "k", "value": "v"})
        return FabricEnvelope(Transaction.wrap([payload], submitter="c"), None, 0.0)

    def test_every_raft_kind_goes_to_the_engine(self):
        __, system, __ = deploy("fabric")
        orderer_id, orderer = self.orderer_of(system)
        seen = []
        orderer.engine.on_message = lambda kind, sender, payload: seen.append((kind, sender))
        sender = system.orderer_ids[1]
        for kind in sorted(RaftEngine.message_kinds):
            orderer.on_message(Message(sender, orderer_id, kind, {}))
        assert seen == [(kind, sender) for kind in sorted(RaftEngine.message_kinds)]

    def test_a_peer_envelope_is_acked_and_accepted(self):
        __, system, __ = deploy("fabric")
        orderer_id, orderer = self.orderer_of(system)
        sent, accepted = [], []
        orderer.send = lambda dst, kind, payload=None, size_bytes=256: sent.append(
            (dst, kind, payload, size_bytes)
        )
        orderer._accept_envelope = accepted.append
        envelope = self.envelope()
        peer_id = system.node_ids[0]
        orderer.on_message(Message(peer_id, orderer_id, "fabric/envelope", envelope))
        assert sent == [(peer_id, "fabric/envelope_ack", None, 32)]
        assert accepted == [envelope]

    def test_a_relayed_envelope_is_accepted_without_an_ack(self):
        __, system, __ = deploy("fabric")
        orderer_id, orderer = self.orderer_of(system)
        sent, accepted = [], []
        orderer.send = lambda *args, **kwargs: sent.append(args)
        orderer._accept_envelope = accepted.append
        envelope = self.envelope()
        orderer.on_message(
            Message(system.orderer_ids[1], orderer_id, "fabric/envelope", envelope)
        )
        assert sent == []
        assert accepted == [envelope]

    @pytest.mark.parametrize("ordering", ["raft", "kafka"])
    @pytest.mark.parametrize("kind", ["fabric/bogus", "raft/bogus", "ibft/prepare"])
    def test_an_unknown_kind_raises(self, ordering, kind):
        __, system, __ = deploy("fabric", params={"OrderingService": ordering})
        orderer_id, orderer = self.orderer_of(system)
        with pytest.raises(AssertionError, match=f"^orderer got unexpected {kind!r}$"):
            orderer.on_message(Message(system.orderer_ids[1], orderer_id, kind, {}))

    def test_a_kafka_orderer_takes_envelopes(self):
        __, system, __ = deploy("fabric", params={"OrderingService": "kafka"})
        orderer_id, orderer = self.orderer_of(system)
        assert orderer.engine is None
        sent, published = [], []
        orderer.send = lambda dst, kind, payload=None, size_bytes=256: sent.append((dst, kind))
        system.broker.publish = published.append
        envelope = self.envelope()
        peer_id = system.node_ids[0]
        orderer.on_message(Message(peer_id, orderer_id, "fabric/envelope", envelope))
        assert sent == [(peer_id, "fabric/envelope_ack")]
        assert published == [("envelope", envelope)]

    @pytest.mark.parametrize("kind", sorted(RaftEngine.message_kinds))
    def test_a_kafka_orderer_rejects_raft_traffic(self, kind):
        __, system, __ = deploy("fabric", params={"OrderingService": "kafka"})
        orderer_id, orderer = self.orderer_of(system)
        with pytest.raises(AssertionError, match="orderer got unexpected"):
            orderer.on_message(Message(system.orderer_ids[1], orderer_id, kind, {}))
