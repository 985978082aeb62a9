"""The package's public surface: `sgk.__all__` is exactly what `__init__`
imports, and every name in it resolves; and the ring operations of
SuperNumber and SuperPoly have one implementation."""

import ast
from pathlib import Path

import sgk
from sgk import grassmann, polyrat


def _imported_names():
    tree = ast.parse(Path(sgk.__file__).read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_all_lists_exactly_the_imported_names():
    imported = _imported_names()
    assert all(not name.startswith("_") for name in imported)
    assert len(sgk.__all__) == len(set(sgk.__all__))
    assert set(sgk.__all__) == imported | {"__version__"}


def test_every_exported_name_resolves():
    for name in sgk.__all__:
        assert getattr(sgk, name, None) is not None, name
    namespace = {}
    exec("from sgk import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sgk.__all__)


def _class_names(module, cls):
    """The names the body of class `cls` in `module`'s source binds."""
    tree = ast.parse(Path(module.__file__).read_text())
    body = next(node.body for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == cls)
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_ring_operations_have_one_implementation():
    """SuperNumber and SuperPoly take their ring operations from
    grassmann._Graded and override none of them."""
    shared = _class_names(grassmann, "_Graded") - {"__slots__"}
    assert {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__neg__", "__pow__", "is_zero", "is_even",
            "is_odd", "soul", "_same"} <= shared
    for module, cls in ((grassmann, "SuperNumber"), (polyrat, "SuperPoly")):
        assert not shared & _class_names(module, cls), cls
