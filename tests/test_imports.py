"""Every import in the package is used: a module-level import somewhere in
its module, a function-local one somewhere in its function."""
import ast
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
