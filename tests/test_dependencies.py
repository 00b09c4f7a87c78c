"""NumPy is the package's only runtime dependency, ``workers.py`` is its
only user of threads, the acceptance suite imports no test framework, the
package exports one name for each thing, and the property tests share one
Hypothesis policy.

Every module under ``src/usbeam/`` is parsed, not imported, and each
import statement in it, at any depth, must name the standard library,
``numpy`` or a module of the package itself (a relative import). Only
``workers.py`` may import ``threading`` or ``concurrent``.
"""

import ast
import sys
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "usbeam"
TESTS = sorted(p for p in Path(__file__).resolve().parent.glob("*.py") if p.name != "conftest.py")
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
CONCURRENCY = {"threading", "concurrent"}
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def roots_of(path):
    return set(imported_roots(parsed(path)))


def test_package_has_modules():
    assert (PACKAGE / "__init__.py").is_file()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_stdlib_and_numpy(path):
    assert sorted(roots_of(path) - ALLOWED) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "workers.py"], ids=lambda path: path.name)
def test_only_workers_imports_threads(path):
    assert sorted(roots_of(path) & CONCURRENCY) == []


# The benchmark loads the acceptance suite by path in each child it
# measures, so what the suite imports counts in the program's memory.
def test_acceptance_suite_imports_only_stdlib_numpy_and_usbeam():
    assert sorted(roots_of(Path(__file__).with_name("test_acceptance.py")) - ALLOWED - {"usbeam"}) == []


def test_package_exports_one_name_for_each_thing():
    import usbeam  # here, so the parsed checks above run even if importing fails

    names_by_object = {}
    for name, value in vars(usbeam).items():
        if not name.startswith("_") and not isinstance(value, types.ModuleType):
            names_by_object.setdefault(id(value), []).append(name)
    assert [names for names in names_by_object.values() if len(names) > 1] == []
    # the benchmark's second names live only in their modules
    for name in ("linear_array", "compute_delays", "reconstruct_envelope_from_delays"):
        assert not hasattr(usbeam, name)


def settings_calls(path):
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Call) and "settings" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield node


# tests/conftest.py loads the one profile (derandomized, no database, no
# deadline); a test that passed more than its example count would leave it
def test_property_tests_set_only_their_example_count():
    extra = [
        f"{path.name}:{call.lineno}"
        for path in TESTS
        for call in settings_calls(path)
        if call.args or [keyword.arg for keyword in call.keywords] != ["max_examples"]
    ]
    assert extra == []
