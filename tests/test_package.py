"""The package's public surface: `sgk.__all__` is exactly what `__init__`
imports, and every name in it resolves."""

import ast
from pathlib import Path

import sgk


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
