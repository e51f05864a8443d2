"""The package's public surface: every exported name exists, and its imports stay within numpy and the stdlib."""

import ast
import sys
from pathlib import Path

import ppboot


def test_every_exported_name_resolves():
    assert [name for name in ppboot.__all__ if not hasattr(ppboot, name)] == []
    assert len(set(ppboot.__all__)) == len(ppboot.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from ppboot import *", namespace)
    assert set(ppboot.__all__) <= namespace.keys()


def _imported_modules(path: Path) -> set[str]:
    """The top-level names of the modules a file imports; a relative import is ``ppboot`` itself."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("ppboot" if node.level else node.module.split(".")[0])
    return names


def test_package_imports_only_the_stdlib_and_numpy():
    # numpy is the one runtime dependency (pyproject.toml).
    allowed = set(sys.stdlib_module_names) | {"numpy", "ppboot", "__future__"}
    package = Path(ppboot.__file__).parent
    found = {path.name: _imported_modules(path) - allowed for path in sorted(package.rglob("*.py"))}
    assert len(found) > 5
    assert {name: extra for name, extra in found.items() if extra} == {}


def test_no_test_imports_scipy():
    tests = Path(__file__).parent
    assert [path.name for path in sorted(tests.rglob("*.py")) if "scipy" in _imported_modules(path)] == []
