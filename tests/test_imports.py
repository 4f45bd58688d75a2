"""Every import in the package is used: a module-level import somewhere in
its module, a function-local one somewhere in its function.  Every private
module-level function and private method is referenced somewhere in the
package outside its own definition."""
import ast
from collections import Counter
from pathlib import Path

import ellq

PACKAGE = Path(ellq.__file__).resolve().parent


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that its scope, the module
    or the function holding the import, never reads."""
    tree = ast.parse(source)
    unused = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in _own_statements(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "*" and name not in used:
                        unused.append((node.lineno, name))
    return unused


def _own_statements(scope):
    """The nodes of scope that lie outside every function nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_unused_import_scan_sees_each_scope():
    source = ("import os\n"
              "from typing import Optional\n"
              "def f() -> Optional[int]:\n"
              "    from math import gcd, prod\n"
              "    def g():\n"
              "        import sys\n"
              "        return gcd\n"
              "    return g\n")
    assert sorted(_unused_imports(source)) == [(1, "os"), (4, "prod"), (6, "sys")]


def test_package_has_no_unused_imports():
    found = [f"{path.name}:{line} {name}" for path in sorted(PACKAGE.glob("*.py"))
             for line, name in _unused_imports(path.read_text())]
    assert found == []


def _unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """module:name of each `def _name` (not a dunder), at module level or in
    the body of a module-level class, that no module of `sources` (name ->
    source) refers to, as a name, an attribute or an imported name, outside
    the function's own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_references(tree))
    return [f"{module}:{fn.name}" for module, tree in trees.items()
            for fn in _module_and_class_bodies(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.name.startswith("_") and not fn.name.endswith("__")
            and everywhere[fn.name] == _references(fn)[fn.name]]


def _module_and_class_bodies(tree):
    """The statements of the module tree and of its module-level classes."""
    for node in tree.body:
        yield node
        if isinstance(node, ast.ClassDef):
            yield from node.body


def _references(tree) -> Counter:
    """How often tree refers to each name, attribute and imported name."""
    return Counter(node.id if isinstance(node, ast.Name) else
                   node.attr if isinstance(node, ast.Attribute) else node.name
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


def test_unreferenced_function_scan_sees_every_module():
    sources = {"a": ("def _used(): pass\n"
                     "def _power_map(): return _power_map()\n"
                     "def _imported(): pass\n"
                     "def _by_attribute(): pass\n"
                     "def __getattr__(name): pass\n"
                     "def public(): return _used()\n"
                     "class C:\n"
                     "    def _method(self): return self._helper()\n"
                     "    def _helper(self): pass\n"
                     "    def _dead(self): return self._dead()\n"
                     "    def __init__(self): self._method()\n"),
               "b": ("from .a import _imported\n"
                     "from . import a\n"
                     "x = a._by_attribute\n")}
    assert _unreferenced_private_functions(sources) == ["a:_power_map", "a:_dead"]


def test_package_has_no_unreferenced_private_functions():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced_private_functions(sources) == []
