"""Package hygiene: every exported name resolves, and no module imports a name
it never uses.

No linter ships with the toolchain, so an ast walk stands in for one.  An
import counts as used when its name appears anywhere in the scope that
imports it (the module, or the function for a function-level import) or, at
module level, in __all__.
"""

import ast
from pathlib import Path

import pytest

import hklab

SRC = Path(hklab.__file__).resolve().parent
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def test_every_exported_name_resolves():
    assert len(set(hklab.__all__)) == len(hklab.__all__)
    assert [name for name in hklab.__all__ if not hasattr(hklab, name)] == []


def _imports(scope):
    """Import statements of a scope, outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _bound(node) -> list:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _used(scope) -> set:
    return {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, _FUNCTIONS)]
    unused = []
    for scope in scopes:
        used = _used(scope) | (_exported(tree) if scope is tree else set())
        unused += [(node.lineno, name) for node in _imports(scope) for name in _bound(node)
                   if name not in used]
    assert sorted(unused) == []
