"""Static checks on the package source: no unused imports, and no imports
inside functions except the one that breaks a real import cycle."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bwlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

#: (module, function, imported module) of the allowed function-level imports:
#: pipeline imports controversy, so coupling_scan imports pipeline late
ALLOWED_LOCAL_IMPORTS = {("controversy.py", "coupling_scan", "pipeline")}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node):
    """Names an Import or ImportFrom node binds in its scope."""
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update(_bound_names(node))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_imports(path):
    found = set()
    for func in ast.walk(_tree(path)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    found.update((path.name, func.name, a.name) for a in node.names)
                elif isinstance(node, ast.ImportFrom):
                    found.add((path.name, func.name, node.module))
    assert sorted(found - ALLOWED_LOCAL_IMPORTS) == []
