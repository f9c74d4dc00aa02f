"""Every name a library module imports is used in that module.

An import nothing reads still costs start-up time and hides which layer
depends on which.  A name counts as used when the module loads it
anywhere (including as the base of an attribute chain) or lists it in
``__all__``, which is how the package re-exports names.
"""

import ast
from pathlib import Path

import pytest

import melnikov_lab

PACKAGE = Path(melnikov_lab.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree):
    """{bound name: line} for every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return used


def test_scan_sees_every_module():
    assert {p.name for p in MODULES} >= {"cli.py", "contour.py", "poincare.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_scan_flags_an_unused_name():
    tree = ast.parse("import os\nfrom math import pi, tau\n__all__ = ['tau']\n")
    used = _used(tree)
    assert sorted(n for n in _imported(tree) if n not in used) == ["os", "pi"]
