"""Every exported name exists, so a removed class cannot linger in an ``__all__``."""

import importlib
import pkgutil

import pytest

import citeforge

MODULES = ["citeforge"] + [
    f"citeforge.{info.name}" for info in pkgutil.iter_modules(citeforge.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
