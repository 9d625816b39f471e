"""Every name a module lists in ``__all__`` exists on that module."""

import importlib
import pkgutil

import pytest

import fjlab

MODULES = [fjlab] + [
    importlib.import_module(f"fjlab.{info.name}")
    for info in pkgutil.iter_modules(fjlab.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)
