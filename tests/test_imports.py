"""Every module imports only what it uses: an imported name must be
referenced in the module or listed in its ``__all__``.  ``__init__.py`` is
exempt, because its imports are the package's re-exports.

No module holds an ``assert`` statement: ``python -O`` strips them, so a
check written as one does not run there.  Checks raise instead.

No ``__all__`` names a stale export: every listed name is bound at the top
level of its module (a def, class, assignment or import), and every name in
``knotcert.__all__`` resolves on the package."""

import ast
from pathlib import Path

import pytest

import knotcert

PACKAGE = sorted(Path(knotcert.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_guard_sees_an_unused_import():
    source = "from typing import Iterable, Sequence\n__all__ = ['x']\nx: Iterable = ()\n"
    assert unused_imports(source) == ["Sequence (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def assert_lines(source: str) -> list[int]:
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_guard_sees_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
    assert assert_lines(source) == [3]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == []


def unbound_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = [e.value for e in node.value.elts]
    return sorted(name for name in exported if name not in bound)


def test_guard_sees_a_stale_export():
    source = "from os import path\n__all__ = ['f', 'path', 'gone']\ndef f():\n    return path\n"
    assert unbound_exports(source) == ["gone"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_stale_exports(path):
    assert unbound_exports(path.read_text()) == []


def test_package_exports_resolve():
    assert [name for name in knotcert.__all__ if not hasattr(knotcert, name)] == []
