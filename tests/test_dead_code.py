"""Guard against dead code: every definition under ``src/repro`` has a use.

A function, method or class counts as used when its name appears as a
name, an attribute or a string constant (``getattr(obj, "name")``)
anywhere in the source, tests, benchmarks, examples or scripts. Being
imported, or listed in ``__all__`` or a package's lazy ``_EXPORTS``
table, is not a use: a name only re-exported is still dead. Matching is by name, as in ``vulture``, so a method whose
name is called on some other class passes too.

Exempt are dunders and the two getattr-dispatched prefixes: IEL
functions (``_fn_<name>``) and fault-plan actions (``_do_<kind>``).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples", "scripts")
DISPATCHED_PREFIXES = ("_fn_", "_do_")


#: Module-level tables that only re-export names.
EXPORT_TABLES = ("__all__", "_EXPORTS")


def _is_export_table(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id in EXPORT_TABLES for target in node.targets
    )


def _scan(root: pathlib.Path):
    definitions = []
    uses = set()
    for directory in SCANNED:
        for path in sorted((root / directory).rglob("*.py")):
            if path == pathlib.Path(__file__).resolve():
                continue  # the self-test below names fixtures as strings
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            in_package = (root / "src" / "repro") in path.parents
            exported = {
                id(element)
                for node in ast.walk(tree)
                if _is_export_table(node)
                for element in ast.walk(node.value)
            }
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if in_package:
                        where = f"{path.relative_to(root)}:{node.lineno}"
                        definitions.append((node.name, where))
                elif isinstance(node, ast.Name):
                    uses.add(node.id)
                elif isinstance(node, ast.Attribute):
                    uses.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()
                    and id(node) not in exported
                ):
                    uses.add(node.value)
    return definitions, uses


def _unused(root: pathlib.Path):
    definitions, uses = _scan(root)
    return [
        f"{where} {name}"
        for name, where in definitions
        if name not in uses
        and not (name.startswith("__") and name.endswith("__"))
        and not name.startswith(DISPATCHED_PREFIXES)
    ]


def test_every_definition_is_used():
    unused = _unused(ROOT)
    assert not unused, "defined under src/repro but used nowhere:\n" + "\n".join(unused)


def test_guard_flags_only_the_unused_definition(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.mod import Kept, dead\n__all__ = ['Kept', 'dead']\n"
    )
    (package / "lazy.py").write_text(
        "_EXPORTS = {'Kept': 'repro.mod', 'dead': 'repro.mod'}\n__all__ = list(_EXPORTS)\n"
    )
    (package / "mod.py").write_text(
        "class Kept:\n"
        "    def __init__(self):\n"
        "        self.hook = getattr(self, 'by_string')\n"
        "    def by_string(self):\n"
        "        pass\n"
        "    def _fn_Set(self):\n"
        "        pass\n"
        "    def _do_crash(self):\n"
        "        pass\n"
        "def dead():\n"
        "    pass\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("from repro.mod import Kept\nKept()\n")
    assert _unused(tmp_path) == ["src/repro/mod.py:10 dead"]
