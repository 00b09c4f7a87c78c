"""NumPy is the package's only runtime dependency, and ``workers.py`` is
its only user of threads.

Every module under ``src/usbeam/`` is parsed, not imported, and each
import statement in it, at any depth, must name the standard library,
``numpy`` or a module of the package itself (a relative import). Only
``workers.py`` may import ``threading`` or ``concurrent``.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "usbeam"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
CONCURRENCY = {"threading", "concurrent"}
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def roots_of(path):
    return set(imported_roots(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))


def test_package_has_modules():
    assert (PACKAGE / "__init__.py").is_file()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_stdlib_and_numpy(path):
    assert sorted(roots_of(path) - ALLOWED) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "workers.py"], ids=lambda path: path.name)
def test_only_workers_imports_threads(path):
    assert sorted(roots_of(path) & CONCURRENCY) == []
