"""The README's table of params and their defaults follows the registry."""

import dataclasses
import json
import pathlib
import re

from rvlab.harness import ExperimentConfig, declared, registered_experiments

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
# `name` (default) or `name` (default; constraint), the default as JSON,
# itself in backticks when it is a string, a list or a bool
_ENTRY = re.compile(r"`(\w+)` \(`?([^;`)]+)`?[;)]")


def _documented_params() -> dict[str, dict]:
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| experiment | params (default) | tolerances (default) |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        experiment, params, _ = (cell.strip() for cell in line.strip("|").split("|"))
        table[experiment.strip("`")] = {
            name: json.loads(default) for name, default in _ENTRY.findall(params)
        }
    return table


def test_readme_param_defaults_match_the_registry():
    documented = _documented_params()
    assert sorted(documented) == registered_experiments()
    for experiment, params in documented.items():
        registry = {k: v for k, v in declared(experiment).items() if k not in FIELDS}
        assert params == registry, experiment
        assert [type(v) for v in params.values()] == [type(registry[k]) for k in params]
