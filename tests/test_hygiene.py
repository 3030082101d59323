"""Static checks on the package source: no unused imports, no imports
inside functions except the one that breaks a real import cycle, no
definition that nothing names, no private definition that only tests read,
no handler of a package error outside the two places that turn one into
an outcome, and no function that takes both a spectrum and its basis."""

import ast
import collections
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bwlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
#: where a definition may be named: the package (its __init__ re-exports do
#: not count), the tests and the benchmark
READERS = [*MODULES, *sorted((ROOT / "tests").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]

#: (module, function, imported module) of the allowed function-level imports:
#: pipeline imports controversy, so coupling_scan imports pipeline late
ALLOWED_LOCAL_IMPORTS = {("controversy.py", "coupling_scan", "pipeline")}

#: (module, function, caught class) of the allowed handlers of BwlabError and
#: its subclasses: the one rule that makes an item of a stack fail alone, and
#: the CLI's one table of exit codes
ALLOWED_ERROR_HANDLERS = {
    ("bw.py", "each_alone", "BwlabError"),
    ("cli.py", "main", "BwlabError"),
}


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


def _top_level_names(node):
    """Names a module-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _definitions(path):
    """Module-level functions, classes, methods and constants of a module,
    skipping dunder names, which the language calls."""
    names = []
    for node in _tree(path).body:
        names += _top_level_names(node)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_definition_is_named_elsewhere():
    """Each definition's name occurs in src, tests or perfbench more often
    than it is defined: the definition alone does not keep it alive."""
    words = collections.Counter()
    for path in READERS:
        words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text()))
    defined = collections.Counter(n for path in MODULES for n in _definitions(path))
    assert sorted(n for n, k in defined.items() if words[n] <= k) == []


def _read_names(node):
    """Names that code under node reads: loaded names, attributes and the
    names an import takes from a module."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield child.id
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            yield child.attr
        elif isinstance(child, ast.ImportFrom):
            yield from (alias.name for alias in child.names)


def test_every_private_definition_is_read_in_src():
    """Each private (_-prefixed) module-level definition in the package is
    read by src code outside its own definition: a helper that only tests
    call belongs in the tests."""
    private, readers = set(), collections.defaultdict(set)
    for path in MODULES:
        for top in _tree(path).body:
            private.update((path.name, n) for n in _top_level_names(top)
                           if n.startswith("_") and not n.startswith("__"))
            for n in _read_names(top):
                readers[n].add((path.name, tuple(_top_level_names(top))))
    unread = [(module, name) for module, name in private
              if not any(where != module or name not in defines
                         for where, defines in readers[name])]
    assert sorted(unread) == []


def _package_errors():
    """BwlabError and the classes of errors.py derived from it."""
    names = {"BwlabError"}
    for node in _tree(SRC / "errors.py").body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in names for b in node.bases):
            names.add(node.name)
    return names


def _handlers(node, function, errors):
    """(function, caught class) of every except clause under node that
    catches a package error, with the innermost enclosing function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _handlers(child, child.name, errors)
            continue
        if isinstance(child, ast.ExceptHandler) and child.type is not None:
            caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
            for node in caught:
                name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                if name in errors:
                    yield function, name
        yield from _handlers(child, function, errors)


def test_package_errors_are_caught_only_where_allowed():
    """A BwlabError is data only where each_alone splits a stack and where
    cli.main maps it to an exit code; every other stage lets it propagate
    (or, as BW's secant search, returns it)."""
    errors = _package_errors()
    found = {(path.name, *handler) for path in MODULES
             for handler in _handlers(_tree(path), None, errors)}
    assert sorted(found) == sorted(ALLOWED_ERROR_HANDLERS)


def test_quadrature_imports_nothing_of_the_engine():
    """The quadrature oracle is the independent check of the residue engine:
    quadrature.py imports nothing from residues, propagators or operators."""
    imported = set()
    for node in ast.walk(_tree(SRC / "quadrature.py")):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert sorted(parts & {"residues", "propagators", "operators"}) == []


def test_no_function_takes_both_a_spectrum_and_its_basis():
    """The pair basis holds its spectrum (basis.spectrum), so a function or
    method that takes a basis takes no spectrum beside it: callers pass one
    model-space argument, not two that must agree."""
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
                if {"spectrum", "basis"} <= params:
                    found.append((path.name, node.name))
    assert sorted(found) == []


#: the one-point calls whose spans the traced benchmark counts
ONE_POINT_CALLS = ("bw_selfconsistent", "xj_matrix", "xj_matrix_ssum_route")


def test_only_run_pipeline_makes_the_one_point_calls():
    """In pipeline.py only run_pipeline, compare's one point, names
    bw_selfconsistent, xj_matrix and xj_matrix_ssum_route: the traced
    calls stay in one place, and every scan point, a chunk of one
    included, runs the stacked stages alone."""
    found = {(getattr(top, "name", None), node.id)
             for top in _tree(SRC / "pipeline.py").body for node in ast.walk(top)
             if isinstance(node, ast.Name) and node.id in ONE_POINT_CALLS}
    assert found == {("run_pipeline", name) for name in ONE_POINT_CALLS}
