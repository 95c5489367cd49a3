"""Every name a module exports resolves, so a deletion leaves no stale
name in __all__ behind."""

import importlib
import pkgutil

import pytest

import umtree

MODULES = ["umtree", *(f"umtree.{m.name}" for m in pkgutil.iter_modules(umtree.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
