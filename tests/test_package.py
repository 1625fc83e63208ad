"""The package's public namespace."""

from __future__ import annotations

import ast
import pathlib
import types

import structent


def test_wildcard_import_keeps_standard_modules():
    ns: dict = {}
    exec("import io\nfrom structent import *", ns)
    assert ns["io"].StringIO().getvalue() == ""
    assert "annotations" not in ns


def test_every_exported_name_resolves():
    assert len(set(structent.__all__)) == len(structent.__all__)
    for name in structent.__all__:
        assert not isinstance(getattr(structent, name), types.ModuleType), name


def test_all_is_the_relatively_imported_names():
    tree = ast.parse(pathlib.Path(structent.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom) and stmt.level and stmt.module
        for alias in stmt.names
    }
    assert set(structent.__all__) == imported


def test_no_unused_top_level_imports():
    """Every name a module imports at top level is referenced in it."""
    src = pathlib.Path(structent.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{stmt.lineno}: {name}")
    assert not unused, unused


def test_no_imports_in_functions():
    """Modules import at top level only, where the unused-import check
    above sees every import and an import cycle fails at once."""
    src = pathlib.Path(structent.__file__).parent
    inner = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner |= {
                    f"{path.name}:{n.lineno}" for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))
                }
    assert not inner, sorted(inner)


# Self-recursive helpers whose depth has a fixed bound.
BOUNDED_RECURSION = {
    # as deep as the nesting of the payload the CLI itself builds
    "cli._round12",
}


def _self_calls(tree: ast.Module, prefix: str) -> set:
    """Qualified names of the functions, nested ones included, that call
    themselves by name (methods through ``self`` or ``cls``)."""
    found = set()
    todo = [(tree, prefix, False)]
    while todo:
        scope, prefix, in_class = todo.pop()
        for child in ast.iter_child_nodes(scope):
            if isinstance(child, ast.ClassDef):
                todo.append((child, prefix + child.name + ".", True))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(child):
                    f = getattr(call, "func", None)
                    if in_class:
                        hit = isinstance(f, ast.Attribute) and f.attr == child.name and (
                            isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")
                        )
                    else:
                        hit = isinstance(f, ast.Name) and f.id == child.name
                    if isinstance(call, ast.Call) and hit:
                        found.add(prefix + child.name)
                todo.append((child, prefix + child.name + ".", False))
            else:
                todo.append((child, prefix, in_class))
    return found


def test_no_unbounded_self_recursion():
    """A function that calls itself once per level of a tree or a list
    fails on deep valid input with RecursionError."""
    src = pathlib.Path(structent.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        found |= _self_calls(ast.parse(path.read_text()), path.stem + ".")
    assert found <= BOUNDED_RECURSION, sorted(found - BOUNDED_RECURSION)
