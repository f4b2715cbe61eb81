"""The package namespace: what ``from polykh import *`` gives."""

import ast
from pathlib import Path

import polykh


def imported_names():
    """The names that the imports of ``polykh/__init__.py`` bind."""
    tree = ast.parse(Path(polykh.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_all_is_what_init_imports():
    # a name dropped from an import but left in __all__ fails the star
    # import below; one imported but not exported fails here
    names = imported_names()
    assert len(set(names)) == len(names)
    assert len(set(polykh.__all__)) == len(polykh.__all__)
    assert set(polykh.__all__) == set(names)


def test_star_import():
    namespace = {}
    exec("from polykh import *", namespace)
    assert set(polykh.__all__) <= set(namespace)
