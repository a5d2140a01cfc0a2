"""The demos import only names the package still has and exports.

Every demo is parsed; the fast ones also run in-process, with the command
line they are listed with.  The others are parsed only: they take from
seconds to minutes.
"""

import ast
import importlib
import runpy
import sys
from pathlib import Path

import pytest

import thinspray

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
# name -> arguments; each takes under a second with them
FAST_DEMOS = {
    "demo_bidisperse_breakup.py": ["--fast"],
    "demo_inequalities.py": [],
    "demo_limit_system.py": ["--fast"],
}


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


def test_all_names_exist():
    missing = [name for name in thinspray.__all__ if not hasattr(thinspray, name)]
    assert not missing, f"thinspray.__all__ lists missing names: {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_top_level_imports_are_exported(path):
    unlisted = [name for module, name in thinspray_imports(path)
                if module == "thinspray" and name not in thinspray.__all__]
    assert not unlisted, f"{path.name} imports names not in thinspray.__all__: {unlisted}"


@pytest.mark.parametrize("name", sorted(FAST_DEMOS))
def test_fast_demo_runs(name, capsys, monkeypatch):
    path = DEMO_DIR / name
    monkeypatch.setattr(sys, "argv", [str(path), *FAST_DEMOS[name]])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
