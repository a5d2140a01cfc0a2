"""The demos import only names the package still has.

The demos are parsed, not run: the slow ones take minutes.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def thinspray_imports(path: Path):
    """(module, name) for every name a `from thinspray... import` line binds."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "thinspray":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    names = list(thinspray_imports(path))
    assert names, f"{path.name} imports nothing from thinspray"
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports missing names: {missing}"
