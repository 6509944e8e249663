"""Source hygiene of the package, checked on its syntax trees.

Every module of src/apolarity other than __init__.py must use each name it
imports, and every module-level private function or class (a name starting
with one underscore) must be referenced somewhere in src/ outside its own
definition.  Leftovers of a refactor show up here before they drift.  And
every module, __init__.py included, may import only the standard library
and the package itself: the tests may lean on sympy, the runtime may not.
Importing the package and its CLI leaves the number theory unloaded, and
the number theory imports nothing from fractions.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "apolarity"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(), filename=str(p))
         for p in PACKAGE.glob("*.py")}


def _used_names(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read anywhere under node (attributes and imported names
    included), leaving out the subtree skip."""
    names: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name):
            names.add(current.id)
        elif isinstance(current, ast.Attribute):
            names.add(current.attr)
        elif isinstance(current, ast.ImportFrom):
            names.update(alias.name for alias in current.names)
        stack.extend(ast.iter_child_nodes(current))
    return names


def _bound_imports(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(((a.asname or a.name.split(".")[0]), node.lineno)
                       for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.extend((a.asname or a.name, node.lineno) for a in node.names)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = TREES[path.name]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _bound_imports(tree)
              if name not in read]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_definitions_are_referenced(path):
    dead = []
    for node in TREES[path.name].body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if not any(name in _used_names(tree, skip=node if module == path.name
                                       else None)
                   for module, tree in TREES.items()):
            dead.append(name)
    assert not dead, f"{path.name} defines private names nothing uses: {dead}"


def _imported_packages(tree: ast.Module) -> list[tuple[str, int]]:
    """Top-level package of every absolute import, with its line."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.module.split(".")[0], node.lineno))
    return out


@pytest.mark.parametrize("name", sorted(TREES))
def test_imports_stay_in_the_standard_library(name):
    outside = [f"{package} (line {line})"
               for package, line in _imported_packages(TREES[name])
               if package not in sys.stdlib_module_names and package != "apolarity"]
    assert not outside, f"{name} imports from outside the standard library: {outside}"


@pytest.mark.parametrize("name", ["lattice.py", "quadratic.py"])
def test_number_theory_imports_no_fractions(name):
    """The pinch normalization holds integers over one denominator: its
    number theory builds no Fraction, so it imports none."""
    lines = [line for package, line in _imported_packages(TREES[name])
             if package == "fractions"]
    assert not lines, f"{name} imports from fractions (line {lines})"


def test_the_checks_see_every_module():
    assert {p.name for p in MODULES} >= {"cubics.py", "certificates.py",
                                         "poly.py", "linalg.py", "quadratic.py"}


def test_number_theory_is_imported_lazily():
    """quadratic and lattice load on the first tangent normalization: the
    benchmark compiles the package in every process, and an eager import
    cost about 15 ms of setup_s and about 1 MB of peak RSS."""
    probe = ("import sys, apolarity, apolarity.cli; print(sorted(m for m in "
             "('apolarity.quadratic', 'apolarity.lattice') if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), check=True)
    assert result.stdout.strip() == "[]"
