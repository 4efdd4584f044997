"""Every module-level import in the package and in its tests is used in
its module or exported by its ``__all__``.  No linter runs on this code, so
this guard uses only ``ast``."""

import ast
from pathlib import Path

import genprob

PACKAGE = Path(genprob.__file__).parent
TESTS = Path(__file__).parent

# the benchmark's tracer tests check that this import site of pair_in_group
# gets wrapped, so graphs keeps the name bound without calling it
ALLOWED = {("graphs.py", "pair_in_group")}


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of ``source`` that no
    expression of the module reads and its ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = []
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read and name not in exported]


def test_guard_finds_an_unused_import():
    assert unused_imports("import os\nfrom re import sub, match\nmatch\n") == ["os", "sub"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


def test_every_import_is_used():
    found = {(path.name, name)
             for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
             for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert found == ALLOWED
