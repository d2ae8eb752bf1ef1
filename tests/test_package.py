"""Package hygiene: every exported name resolves, no module imports a name it
never uses, and every top-level function or class and every method or
property of a class is used.

No linter ships with the toolchain, so an ast walk stands in for one.  An
import counts as used when its name appears anywhere in the scope that
imports it (the module, or the function for a function-level import) or, at
module level, in __all__.  A top-level function or class counts as used when
its name appears, as a name or an attribute, in src/hklab or scripts outside
its own definition, or in __all__.  A method or property (dunder methods
aside) counts as used when its name appears, as a name, an attribute or a
string, in src/hklab or scripts outside its own definition.  A name that
several classes share counts as used for all of them once one is used.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import hklab

SRC = Path(hklab.__file__).resolve().parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
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


def test_one_scatter_rule():
    """np.bincount is the one scatter: assembly, the load vectors and the surface
    estimators sum in a stated order with it, and no ufunc.at (np.add.at and
    the like, which is slower and easy to reorder) is left in the package."""
    at_calls = [
        (path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "at"
        and isinstance(node.value, ast.Attribute) and isinstance(node.value.value, ast.Name)
        and node.value.value.id in ("np", "numpy")
    ]
    assert at_calls == []


def test_no_counted_fromstring():
    """np.fromstring reads text strictly only without a count: with numpy
    2.4.6, fromstring("3 0 1 2", dtype=np.int64, sep=" ", count=8) returns
    uninitialised values past the text, and with a count it reads "2.5" as 2.
    No call in the package passes one, by keyword or as the third argument."""
    counted = [
        (path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute)
             else getattr(node.func, "id", None)) == "fromstring"
        and (len(node.args) > 2 or any(kw.arg in ("count", None) for kw in node.keywords))
    ]
    assert counted == []


# top-level definitions that only the tests use, with the reason they stay
_TESTED_ONLY = {
    ("surface.py", "frame_residual"):
        "checks the frame relation of analytic and imported surfaces in the tests",
}


def _top_level_references(path: Path):
    """(module, own definition or None, names used) for every top-level statement."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        own = node.name if isinstance(node, (*_FUNCTIONS, ast.ClassDef)) else None
        names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
        names |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
        yield path.name, own, names
    yield path.name, None, _exported(tree)


def test_every_top_level_definition_is_used():
    package = [ref for path in sorted(SRC.glob("*.py")) for ref in _top_level_references(path)]
    statements = package + [ref for path in sorted(SCRIPTS.glob("*.py"))
                            for ref in _top_level_references(path)]
    definitions = [(module, own) for module, own, _ in package if own is not None]
    unused = [
        definition for definition in definitions
        if not any(definition[1] in names and (module, own) != definition
                   for module, own, names in statements)
    ]
    assert sorted(unused) == sorted(_TESTED_ONLY)


# methods and properties that only the tests use, with the reason they stay
_MEMBERS_TESTED_ONLY = {
    ("bvp.py", "QuadraticField.neumann_constant"):
        "the flux constant the exact cap solution realizes on T, checked in closed form",
    ("bvp.py", "QuadraticField.sigma_normal_derivative"):
        "the exact solution's normal derivative on Sigma, checked in closed form",
    ("caps.py", "AnalyticCap.contains_enclosed"):
        "the membership test of the Monte-Carlo cap-volume oracles in the tests",
    ("reilly.py", "PipelineTrace.all_passed"):
        "the chain verdict that the Reilly and acceptance tests assert",
    ("reilly.py", "PipelineTrace.step"):
        "the lookup of one chain step by name in the Reilly and acceptance tests",
    ("domain.py", "DomainMesh.volume"):
        "|Omega| as the sum of cell volumes, read by the domain, meshio and hk tests",
}


def _attribute_reads(node) -> Counter:
    """The attribute names read under node (obj.name in a load), counted."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def test_every_method_and_property_is_used():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in [*sorted(SRC.glob("*.py")), *sorted(SCRIPTS.glob("*.py"))]}
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    members = [(path.name, cls, node) for path in sorted(SRC.glob("*.py"))
               for cls in trees[path].body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("__")]
    unused = [(module, f"{cls.name}.{node.name}") for module, cls, node in members
              if reads[node.name] == _attribute_reads(node)[node.name]]
    assert sorted(unused) == sorted(_MEMBERS_TESTED_ONLY)
