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
