"""The package's public namespace."""

from __future__ import annotations

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
