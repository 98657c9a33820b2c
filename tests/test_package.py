"""The package surface: its public names, and the README's API example."""

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


def test_star_import():
    namespace = {}
    exec("from rindler_teleport import *", namespace)
    assert set(rindler_teleport.__all__) <= set(namespace)


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
