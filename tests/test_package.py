"""The package root is its docstring and version; the modules are the API."""

import importlib
import pkgutil
import types

import krylovflow


def test_every_module_is_the_package_attribute_of_its_name():
    names = [m.name for m in pkgutil.iter_modules(krylovflow.__path__)]
    assert "bilanczos" in names
    for name in names:
        module = importlib.import_module(f"krylovflow.{name}")
        assert getattr(krylovflow, name) is module, name
    import krylovflow.bilanczos as m
    assert isinstance(m, types.ModuleType)
