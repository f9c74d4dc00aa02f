"""Every name a library module imports is used in that module, every
module-level private name is referenced somewhere in the package, and every
function a module lists in ``__all__`` and every public attribute of a
public class is reached by the library or the benchmark.

An import nothing reads still costs start-up time and hides which layer
depends on which.  A name counts as used when the module loads it
anywhere (including as the base of an attribute chain) or lists it in
``__all__``, which is how the package re-exports names.  A module-level
``_name`` that no module loads, imports or reaches as an attribute is dead
code left behind by a refactor.  So is a public function that no library
module (a re-export in ``__init__`` aside) and no ``perfbench/*.py`` file
references, unless the tests keep it as a reference (REFERENCE_ONLY).  The
same holds for a public dataclass field, property or method that no library
module and no ``perfbench/*.py`` file reads as an attribute (or, in
perfbench, names in a string, as its tracer's TARGETS do), unless open work
is to read it (UNREAD_ATTRIBUTES).

A test file other than tests/oracles.py replaces no library callable by
hand: it calls setattr only on an _UPPER_CASE constant and imports no
unittest.mock, so oracles.recorded stays the one way to watch or stub one.
"""

import ast
from pathlib import Path

import pytest

import melnikov_lab

PACKAGE = Path(melnikov_lab.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH_FILES = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))

# Public functions that only the tests call.
REFERENCE_ONLY = {
    # criterion 5's independent Laurent-coefficient check of the residues, given
    # each integrand by its caller; as contour's one caller of jacobi_complex it
    # keeps that import bound, which perfbench's tracer wraps
    "contour.laurent_probe",
}

# Public attributes that nothing reads yet, kept for the work that is to read them.
UNREAD_ATTRIBUTES = {
    # the eigenvalues of DP at a fixed point, for the stability oracle (ROADMAP item 4)
    "FixedPointResult.floquet_multipliers",
    # the evidence of a node-doubling pass, for the library's work counters and
    # the certificate's provenance (ROADMAP items 10 and 11)
    "MelnikovKernels.nodes",
    "MelnikovKernels.last_diff",
}


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


def _exported(tree):
    """The names listed in the module's __all__."""
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names.update(ast.literal_eval(node.value))
    return names


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | _exported(tree)


def _private_definitions(tree):
    """{module-level _name: line}, dunder names excepted."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            bound = []
        for name in bound:
            if name.startswith("_") and not name.endswith("__"):
                names[name] = node.lineno
    return names


def _references(tree):
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def test_scan_sees_every_module():
    assert {p.name for p in MODULES} >= {"cli.py", "contour.py", "poincare.py"}


def test_package_root_binds_only_its_version():
    # every name has one import path: the module that defines it
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    docstring, *statements = tree.body
    assert ast.get_docstring(tree) is not None
    assert [ast.unparse(s) for s in statements] == [f"__version__ = {melnikov_lab.__version__!r}"]


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


def test_no_unreferenced_private_module_names():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    dead = {
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in referenced
    }
    assert not dead, f"module-level private names referenced nowhere: {sorted(dead)}"


def test_private_scan_flags_an_unreferenced_name():
    tree = ast.parse(
        "import math\n_A, _B = 1, 2\n_C = _A\n__all__ = []\n"
        "def _agm(a, b):\n    return a\n"
        "def _used():\n    return math._private\n_used()\n"
    )
    defined = _private_definitions(tree)
    assert sorted(n for n in defined if n not in _references(tree)) == ["_B", "_C", "_agm"]


def _unreached_public_functions(trees, outside):
    """{"module.function"} for the functions in a module's __all__ that nothing references.

    References come from every module of trees but "__init__" (a
    re-export is not a call), the defining module included, and from
    every tree of outside.
    """
    referenced = set().union(
        *(_references(tree) for name, tree in trees.items() if name != "__init__"),
        *(_references(tree) for tree in outside),
    )
    return {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name in _exported(tree)
        and node.name not in referenced
    }


def test_every_public_function_is_reached():
    assert BENCH_FILES, "perfbench/ not found beside the package"
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    bench = [ast.parse(path.read_text(), filename=str(path)) for path in BENCH_FILES]
    unreached = _unreached_public_functions(trees, bench)
    assert unreached == REFERENCE_ONLY, (
        f"public functions nothing in the library or perfbench calls: "
        f"{sorted(unreached - REFERENCE_ONLY)}; reference-only functions now "
        f"called or gone: {sorted(REFERENCE_ONLY - unreached)}"
    )


def test_reach_scan_flags_an_unreached_function():
    trees = {
        "lib": ast.parse(
            "__all__ = ['calls', 'helper', 'reexported', 'benched', 'LIMIT']\n"
            "LIMIT = 1\n"
            "def calls():\n    return helper()\n"
            "def helper():\n    return LIMIT\n"
            "def reexported():\n    pass\n"
            "def benched():\n    pass\n"
            "def _private():\n    pass\n"
        ),
        "user": ast.parse("from lib import calls\n__all__ = []\ncalls()\n"),
        "__init__": ast.parse("from .lib import reexported\n"),
    }
    bench = [ast.parse("import lib\nlib.benched()\n")]
    assert _unreached_public_functions(trees, bench) == {"lib.reexported"}


def _public_attributes(tree):
    """{"Class.name"} for the public fields, properties and methods of public classes.

    A field is an annotated name in the body of a @dataclass class; every
    function of a class body is a property or a method.
    """
    found = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        is_dataclass = any(
            getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None) == "dataclass"
            for dec in node.decorator_list
        )
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                name = item.name
            elif is_dataclass and isinstance(item, ast.AnnAssign):
                name = item.target.id
            else:
                continue
            if not name.startswith("_"):
                found.add(f"{node.name}.{name}")
    return found


def _unread_attributes(trees, outside):
    """{"Class.name"} for the public attributes of trees whose name nothing reads.

    A read is an attribute load in any tree of trees or outside, or a string
    constant in a tree of outside.
    """
    read = {
        node.attr
        for tree in (*trees.values(), *outside)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    } | {
        node.value
        for tree in outside
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    return {
        attr
        for tree in trees.values()
        for attr in _public_attributes(tree)
        if attr.split(".")[1] not in read
    }


def test_every_public_attribute_is_read():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    bench = [ast.parse(path.read_text(), filename=str(path)) for path in BENCH_FILES]
    unread = _unread_attributes(trees, bench)
    assert unread == UNREAD_ATTRIBUTES, (
        f"public attributes nothing in the library or perfbench reads: "
        f"{sorted(unread - UNREAD_ATTRIBUTES)}; exempt attributes now read or "
        f"gone: {sorted(UNREAD_ATTRIBUTES - unread)}"
    )


def test_attribute_scan_flags_an_unread_field():
    trees = {
        "lib": ast.parse(
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Point:\n"
            "    x: float\n    y: float\n    spare: float\n    LIMIT = 1\n"
            "    @property\n    def norm(self):\n        return self.x\n"
            "    def scaled(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
            "class Plain:\n    annotated: int\n    def traced(self):\n        pass\n"
            "class _Hidden:\n    def loose(self):\n        pass\n"
            "def use(p):\n    p.y = 2.0\n    return p.norm\n"
        ),
    }
    bench = [ast.parse("TARGETS = (('lib', 'Plain', 'traced'),)\nspare = point.spare\n")]
    assert _unread_attributes(trees, bench) == {"Point.y", "Point.scaled"}


def _hand_replacements(tree):
    """Lines of each setattr whose name is no _UPPER_CASE literal and each unittest.mock import."""
    lines = set()
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if getattr(func, "id", getattr(func, "attr", "")) == "setattr":
            name = getattr(node.args[1], "value", None) if len(node.args) == 3 else None
            if not (isinstance(name, str) and name.lstrip("_").isupper()):
                lines.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            if any(f"{prefix}{alias.name}.".startswith("unittest.mock.") for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


def test_tests_replace_library_callables_only_through_recorded():
    scans = {path.name: _hand_replacements(ast.parse(path.read_text())) for path in TEST_FILES}
    found = {name: lines for name, lines in scans.items() if lines and name != "oracles.py"}
    assert "oracles.py" in scans and not found, f"replaced outside oracles.recorded: {found}"


def test_replacement_scan_flags_a_hand_patch():
    tree = ast.parse(
        "from unittest import mock\nimport unittest.mock as um\nfrom unittest.mock import patch\n"
        "import unittest, mockito\nmonkeypatch.setattr(poincare, '_NEWTON_MAX', 3)\n"
        "setattr(poincare, '_dop853_flow', stub)\nmp.setattr(poincare, name, stub)\n"
        "monkeypatch.setattr('melnikov_lab.poincare._COARSE_BUDGET', 1.0)\n"
        "monkeypatch.setattr(run, 'SRC', path)\n"
    )
    assert _hand_replacements(tree) == [1, 2, 3, 6, 7, 8]
