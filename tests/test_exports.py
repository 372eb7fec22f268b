"""Every public name the package declares resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import elliptic_bailey

MODULES = sorted(m.name for m in pkgutil.iter_modules(elliptic_bailey.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"elliptic_bailey.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_exist():
    tree = ast.parse(Path(elliptic_bailey.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    missing = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if not hasattr(importlib.import_module(f"elliptic_bailey.{node.module}"), alias.name)
    ]
    assert missing == []
