"""Every export table of the package resolves."""

import importlib
import pkgutil
from types import ModuleType

import pytest

import soflqr

MODULES = sorted(info.name for info in pkgutil.iter_modules(soflqr.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"soflqr.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from soflqr.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_exports_match_its_imports():
    imported = {n for n, v in vars(soflqr).items()
                if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert sorted(soflqr.__all__) == sorted(imported)
    assert len(set(soflqr.__all__)) == len(soflqr.__all__)
