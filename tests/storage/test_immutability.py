"""No code writes a payload, transaction, batch or receipt field after
construction.

``Payload``, ``Transaction``, ``Batch`` and ``Receipt`` are plain
``__slots__`` classes, so nothing at run time stops an assignment to a
field. The memoized ``Transaction.content_hash``, every Merkle root
built from it and every hash of a ``Message`` that carries one are right
only while the fields keep their construction values. This scan of
``src/`` is the guarantee ``frozen=True`` used to give.

Flagged: an attribute store or delete (``x.f = ...``, ``x.f += ...``,
``del x.f``, in any target position) and a ``setattr``/``delattr``/
``__setattr__``/``__delattr__`` call, where ``f`` is a slot of one of
the four classes or the name is not a constant. An AST has no types, so
the scan judges by name, conservatively:

* outside the four classes, a write to ``self.f`` is that other class's
  own attribute and passes (``self`` is never one of the four there);
* a write to a local name bound to ``<cls>.__new__(...)`` in the same
  function is construction and passes (``Block.linked`` builds blocks
  that way);
* inside them, only ``__init__`` writes fields, and ``content_hash``
  writes ``_digest``.
"""

import ast
import pathlib

from repro.storage import Batch, Payload, Receipt, Transaction

ROOT = pathlib.Path(__file__).resolve().parents[2]
CLASSES = (Payload, Transaction, Batch, Receipt)
FIELDS = frozenset(name for cls in CLASSES for name in cls.__slots__)
#: Per method of the four classes, the slots it may write.
WRITERS = {"__init__": FIELDS, "content_hash": {"_digest"}}
SETTERS = ("setattr", "delattr", "__setattr__", "__delattr__")


class _Writes(ast.NodeVisitor):
    """Collects ``(line, name)`` of every forbidden field write."""

    def __init__(self, guarded_classes):
        self.guarded_classes = guarded_classes
        self.classes = []
        self.functions = []
        #: Per enclosing function, the locals bound to ``X.__new__(...)``.
        self.fresh = []
        self.found = []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.fresh.append({
            target.id
            for assign in ast.walk(node)
            if isinstance(assign, ast.Assign)
            and isinstance(assign.value, ast.Call)
            and getattr(assign.value.func, "attr", None) == "__new__"
            for target in assign.targets
            if isinstance(target, ast.Name)
        })
        self.generic_visit(node)
        self.functions.pop()
        self.fresh.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check(self, node, obj, name):
        if name is not None and name not in FIELDS:
            return
        if isinstance(obj, ast.Name) and self.fresh and obj.id in self.fresh[-1]:
            return
        inside = bool(self.classes) and self.classes[-1] in self.guarded_classes
        if isinstance(obj, ast.Name) and obj.id == "self":
            if not inside:
                return
            allowed = WRITERS.get(self.functions[-1] if self.functions else "", ())
            if name in allowed:
                return
        self.found.append((node.lineno, name or "<dynamic>"))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self._check(node, node.value, node.attr)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called in SETTERS and len(node.args) >= 2:
            target = node.args[1]
            name = target.value if isinstance(target, ast.Constant) else None
            self._check(node, node.args[0], name)
        self.generic_visit(node)


def field_writes(root):
    """Every forbidden write under ``root/src``, as ``path:line name``."""
    guarded = {cls.__name__ for cls in CLASSES}
    found = []
    for path in sorted((root / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_storage = path.parent.name == "storage"
        visitor = _Writes(guarded if in_storage else set())
        visitor.visit(tree)
        found += [f"{path.relative_to(root)}:{line} {name}" for line, name in visitor.found]
    return found


def test_no_field_is_written_after_construction():
    writes = field_writes(ROOT)
    assert not writes, "fields written after construction:\n" + "\n".join(writes)


def test_the_classes_have_no_instance_dict():
    # With a __dict__ an attribute could be added beside the slots, out
    # of the scan's sight.
    for cls in CLASSES:
        assert not hasattr(cls.__new__(cls), "__dict__"), cls.__name__


def test_scan_flags_every_kind_of_write(tmp_path):
    storage = tmp_path / "src" / "repro" / "storage"
    storage.mkdir(parents=True)
    (storage / "transaction.py").write_text(
        "class Transaction:\n"
        "    def __init__(self, tx_id):\n"
        "        self.tx_id = tx_id\n"
        "        self._digest = None\n"
        "    def __setstate__(self, state):\n"
        "        object.__setattr__(self, 'kind', state)\n"
        "    @property\n"
        "    def content_hash(self):\n"
        "        self._digest = 'd'\n"
        "        self.tx_id = 'x'\n"
        "    def rename(self, name):\n"
        "        setattr(self, name, 1)\n"
    )
    (tmp_path / "src" / "repro" / "user.py").write_text(
        "class Other:\n"
        "    def __init__(self, tx):\n"
        "        self.status = 'own attribute'\n"
        "        self.label = tx.kind\n"
        "        tx.kind = 'x'\n"
        "        tx.size_bytes += 1\n"
        "        del tx.payloads\n"
        "        a.detail, b.unrelated = 1, 2\n"
        "        object.__setattr__(tx, '_digest', None)\n"
        "        setattr(tx, 'unrelated', 0)\n"
        "        tx.unrelated = 0\n"
        "    @classmethod\n"
        "    def fresh(cls):\n"
        "        block = cls.__new__(cls)\n"
        "        block.transactions = ()\n"
        "        other = make()\n"
        "        other.transactions = ()\n"
    )
    assert field_writes(tmp_path) == [
        "src/repro/storage/transaction.py:6 kind",
        "src/repro/storage/transaction.py:10 tx_id",
        "src/repro/storage/transaction.py:12 <dynamic>",
        "src/repro/user.py:5 kind",
        "src/repro/user.py:6 size_bytes",
        "src/repro/user.py:7 payloads",
        "src/repro/user.py:8 detail",
        "src/repro/user.py:9 _digest",
        "src/repro/user.py:17 transactions",
    ]
