"""Every name a module exports resolves, and README's examples run."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import re

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


SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "isocap"


@pytest.mark.parametrize("path", sorted(p.relative_to(SOURCE).as_posix()
                                        for p in SOURCE.rglob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    # every name a top-level import binds is read somewhere in the module
    tree = ast.parse((SOURCE / path).read_text())
    bound = [alias.asname or alias.name.partition(".")[0] for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in bound if name not in used] == []


def test_readme_python_examples_run():
    # the blocks build on each other, so they run in order in one namespace
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
