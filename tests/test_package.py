"""The package's public surface and imports.

Every exported name exists, the imports stay within numpy and the stdlib,
no module imports a name it never reads or defines a constant that nothing
reads, and importing the CLI leaves the thread pool unimported.
"""

import ast
import os
import subprocess
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


def _names_read(tree: ast.AST) -> set[str]:
    """The names a tree reads: each loaded name, each attribute after a dot, and each string in ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(elt.value for elt in node.value.elts)
    return names


def test_every_import_and_constant_is_read():
    package = Path(ppboot.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.rglob("*.py"))}
    unread_imports = {}
    for name, tree in trees.items():
        bound = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                 for alias in node.names}
        unread_imports[name] = bound - _names_read(tree)
    # An upper-case name bound at a module's top level is a constant.
    constants = {target.id for tree in trees.values() for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name) and target.id.isupper()}
    read = set().union(*(_names_read(tree) for tree in trees.values()))
    assert len(constants) > 10
    assert {name: unread for name, unread in unread_imports.items() if unread} == {}
    assert sorted(constants - read) == []


def test_importing_the_cli_leaves_the_thread_pool_unimported():
    # The pool is imported where a loop first deals work to threads, so the
    # package's import time never pays for it.
    src = Path(ppboot.__file__).parent.parent
    probe = "import sys; import ppboot.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
