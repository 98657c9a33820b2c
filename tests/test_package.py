"""The package surface: its public names, and the README's API example."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import rindler_teleport

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = ["rindler_teleport"] + [
    f"rindler_teleport.{name}" for name in ("spectral", "mode_algebra", "teleportation", "oracle")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_root_reexports_each_module_all():
    """The root's public names are the four modules' lists, in order, as the same objects."""
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    assert rindler_teleport.__all__ == [entry for module in modules for entry in module.__all__]
    for module in modules:
        for entry in module.__all__:
            assert getattr(rindler_teleport, entry) is getattr(module, entry), entry


def test_init_holds_no_name_list():
    """Besides its docstring and version, ``__init__.py`` spells out no string: no name list."""
    tree = ast.parse(Path(rindler_teleport.__file__).read_text())
    strings = [
        node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert strings == [ast.get_docstring(tree, clean=False), rindler_teleport.__version__]


def test_star_import():
    namespace = {}
    exec("from rindler_teleport import *", namespace)
    assert set(rindler_teleport.__all__) <= set(namespace)


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
