"""Every name a module exports in ``__all__`` exists, so star imports work,
and every name the benchmark's span recorder wraps exists."""

import importlib
import pathlib
import pkgutil
import runpy

import pytest

import rvlab

MODULES = ["rvlab"] + [f"rvlab.{m.name}" for m in pkgutil.iter_modules(rvlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [key for key in getattr(module, "__all__", []) if not hasattr(module, key)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_benchmark_span_resolves():
    # run_path compiles the file in memory: nothing is imported or cached
    layers = runpy.run_path(str(SPANS))["LAYERS"]
    missing = []
    for layer, module_name, attr in layers:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{layer}: {module_name}.{attr}")
    assert not missing, f"bench/spans.py wraps names rvlab no longer has: {missing}"
