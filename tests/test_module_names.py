"""Every name a module's ``__all__`` lists is bound in that module, and no
module defines a module ``__getattr__``: each name has one home, reached by
importing it.  Like the unused-import guard, this uses only ``ast``."""

import ast
from pathlib import Path

import genprob

PACKAGE = Path(genprob.__file__).parent


def bound_names(tree: ast.Module) -> set[str]:
    """The names the module-level statements of ``tree`` bind."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def exported_names(tree: ast.Module) -> list[str]:
    """The names the module's ``__all__`` lists; none without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def unbound_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = bound_names(tree)
    return [name for name in exported_names(tree) if name not in bound]


def test_guard_finds_an_unbound_export_and_a_module_getattr():
    source = ("from x import y\nimport a.b\nz: int = 1\nw, (v, u) = 1, (2, 3)\n"
              "def __getattr__(name): ...\n"
              "__all__ = ['y', 'a', 'z', 'w', 'u', 'missing', '__getattr__']\n")
    assert unbound_exports(source) == ["missing"]
    assert "__getattr__" in bound_names(ast.parse(source))


def test_every_exported_name_is_bound_in_its_module():
    found = {(path.name, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for name in unbound_exports(path.read_text(encoding="utf-8"))}
    assert found == set()


def test_no_module_defines_getattr():
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "__getattr__" in bound_names(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
