"""Import hygiene of the package: its import statements, checked with the
standard library's ``ast`` so that it needs no linter, and what importing it
starts."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "selfnorm_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _bound_names(tree):
    """(name, line) of every name an import binds, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_references_every_import(path):
    tree = ast.parse(path.read_text())
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _bound_names(tree)
              if name not in referenced]
    assert unused == []


def test_package_exports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module("." * node.level + (node.module or ""),
                                             "selfnorm_lab")
            missing += [f"{module.__name__}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
    assert missing == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_scipy_integrate(path):
    # every integral runs on the graded-cell quadrature of distributions;
    # scipy.integrate is an oracle of the tests only
    tree = ast.parse(path.read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module for alias in node.names]
    assert [m for m in modules if m == "scipy.integrate" or m.startswith("scipy.integrate.")] == []


def test_import_starts_no_thread():
    # the engines' worker pools are created on first use, not at import
    code = ("import threading, selfnorm_lab, selfnorm_lab.cli, selfnorm_lab.scenarios; "
            "print(threading.active_count())")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "1"


def test_import_loads_no_scipy():
    # scipy takes most of a cold start; the functions that need it import it
    code = ("import sys, selfnorm_lab, selfnorm_lab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
