"""Every name a module exports resolves."""

import ast
import dataclasses
import importlib
import inspect

import pytest

MODULES = ["isocap", "isocap.sphere", "isocap.domains", "isocap.capacity",
           "isocap.asymmetry", "isocap.stability", "isocap.harness"]


def _exports(module) -> list:
    """The module's __all__, or else every name its package-relative
    `from . import` lines bind."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    tree = ast.parse(inspect.getsource(module))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    names = _exports(module)
    assert names
    assert [n for n in names if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_export_takes_a_mode(name):
    # outer_radius alone names the problem: None is the absolute one
    module = importlib.import_module(name)
    exported = [getattr(module, n) for n in _exports(module)]
    checked = [f for f in exported if inspect.isfunction(f) or dataclasses.is_dataclass(f)]
    assert checked
    assert [f.__name__ for f in checked if "mode" in inspect.signature(f).parameters] == []
