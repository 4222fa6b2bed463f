"""A node routes consensus traffic by its engine's ``message_kinds``.

``BaseNode.on_message`` hands a message to the engine when its kind is
in the engine's ``message_kinds``; any other kind goes to the system's
``handle_node_message``, which raises on kinds it does not know. So
every kind an engine sends must be listed, and no chain module may
name an engine-prefixed kind its engine does not list.
"""

import ast
import inspect
import pathlib

import pytest

from repro.chains.base import ReplicaNode
from repro.consensus.diembft import DiemBftEngine
from repro.consensus.dpos import DposEngine
from repro.consensus.ibft import IbftEngine
from repro.consensus.pbft import PbftEngine
from repro.consensus.raft import RaftEngine
from repro.net import Message
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
