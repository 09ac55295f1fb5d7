"""Every name a module of the package imports is used there, every name it
exports exists and has a caller, and its only runtime dependency outside
the standard library is numpy.

A standard-library stand-in for pyflakes' unused-import check: an imported
name counts as used when it appears as a name anywhere in the module (an
attribute's root included) or is listed in the module's ``__all__``.  The
``__all__`` checks catch a deleted name left behind in an export list, and
a public name that only the tests read.
"""

import ast
import importlib
import sys
from pathlib import Path

import novikov

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "novikov"
# public names that only the tests read, each declared on purpose
TEST_ONLY = {"coboundary_of", "path_complex", "sphere_boundary", "point", "action_to_json"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = "\n".join(
        [
            "import os",
            "import numpy as np",
            "from math import pi, tau",
            "__all__ = ['tau']",
            "np.sin(pi)",
        ]
    )
    assert unused_imports(source) == ["os (line 1)"]


def test_package_has_no_unused_imports():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = {path.name: unused_imports(path.read_text()) for path in modules}
    assert not {name: names for name, names in found.items() if names}


def foreign_imports(source: str) -> list[str]:
    """Absolute imports whose top-level module is neither stdlib nor numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            f"{name} (line {node.lineno})"
            for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"}
        ]
    return found


def test_checker_finds_a_foreign_import():
    source = "\n".join(
        [
            "import math, numpy.linalg",
            "from . import twisted",
            "from .scalars import Matrix",
            "from scipy.linalg import eigh",
            "import sympy as sp",
        ]
    )
    assert foreign_imports(source) == ["scipy.linalg (line 4)", "sympy (line 5)"]


def test_numpy_is_the_only_runtime_dependency():
    found = {path.name: foreign_imports(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    assert found and not {name: names for name, names in found.items() if names}


def test_twisted_imports_neither_numpy_nor_fraction():
    # the reduction and its evaluation are pure Python: every dense array is
    # built in scalars or hodge, and an exact entry takes lambda's own type
    names = set()
    for node in ast.walk(ast.parse((SOURCE / "twisted.py").read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {alias.name for alias in node.names}
    assert not names & {"numpy", "fractions", "Fraction"}


def test_only_scalars_hodge_and_bounds_import_numpy():
    # every dense array is built in these three: wang ranks its blocks and
    # twisted its residuals through scalars._rank
    importers = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "numpy" for name in names):
                importers.add(path.stem)
    assert importers == {"scalars", "hodge", "bounds"}


def test_every_exported_name_resolves():
    missing = []
    for path in sorted(SOURCE.glob("*.py")):
        name = "novikov" if path.stem == "__init__" else f"novikov.{path.stem}"
        module = importlib.import_module(name)
        missing += [
            f"{name}.{entry}"
            for entry in getattr(module, "__all__", ())
            if not hasattr(module, entry)
        ]
    assert not missing


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((SOURCE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(novikov.__all__) == imported
    assert len(novikov.__all__) == len(imported)


def exported_names(source: str) -> list[str]:
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def read_names(source: str) -> set[str]:
    """Every name the code reads: bare, as an attribute or imported by name.

    Docstrings and comments are not code, so a name they mention is not read.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def names_without_a_caller(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name`` for every ``__all__`` entry of modules that no caller reads."""
    read = set().union(*map(read_names, callers))
    return [
        f"{module}.{name}"
        for module, source in modules.items()
        for name in exported_names(source)
        if name not in read
    ]


def test_checker_finds_a_name_without_a_caller():
    shapes = "\n".join(
        [
            '__all__ = ["area", "perimeter", "volume", "Box", "edge"]',
            "def area(box):",
            '    """Unlike volume, the area is read."""',
            "    return box.edge ** 2",
        ]
    )
    callers = [
        shapes,
        "from shapes import area",
        "import shapes\nshapes.perimeter(1)",
        "Box = None  # volume",
    ]
    assert names_without_a_caller({"shapes": shapes}, callers) == ["shapes.volume"]


def test_every_public_name_has_a_caller():
    # the package __init__ only re-exports, so its imports call nothing
    modules = {
        path.stem: path.read_text()
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "__init__.py"
    }
    scripts = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    callers = list(modules.values()) + [path.read_text() for path in scripts]
    assert modules and scripts
    missing = names_without_a_caller(modules, callers)
    assert sorted(missing) == sorted(
        f"{module}.{name}"
        for module, source in modules.items()
        for name in exported_names(source)
        if name in TEST_ONLY
    )
