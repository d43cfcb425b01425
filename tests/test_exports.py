"""Every name a module exports in ``__all__`` exists, so star imports work."""

import importlib
import pkgutil

import pytest

import rvlab

MODULES = ["rvlab"] + [f"rvlab.{m.name}" for m in pkgutil.iter_modules(rvlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [key for key in getattr(module, "__all__", []) if not hasattr(module, key)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
