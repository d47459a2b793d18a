"""The package's public names: every name a module exports resolves, so
removing a function cannot leave a dangling export behind."""

import importlib
import pkgutil

import pytest

import sbl

_MODULES = [sbl] + [importlib.import_module(f"sbl.{info.name}")
                    for info in pkgutil.iter_modules(sbl.__path__)]


@pytest.mark.parametrize("mod", _MODULES, ids=lambda mod: mod.__name__)
def test_every_exported_name_resolves(mod):
    names = getattr(mod, "__all__", ())
    assert [name for name in names if not hasattr(mod, name)] == []
    namespace: dict = {}
    exec(f"from {mod.__name__} import *", namespace)
    assert set(names) <= set(namespace)
