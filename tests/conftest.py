"""A run of rvlab as an install without scipy sees it.

One fresh interpreter sets ``sys.modules["scipy"] = None``, so every scipy
import raises, and then takes each step below in turn.  Each step's outcome
(the error it raised, if any; its value; whether ``rvlab.kernel`` is loaded
after it) comes back as one JSON document, which the probes in
``test_cli.py`` and ``test_kernel.py`` read step by step.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

_PROBE = """
import json, sys
sys.modules["scipy"] = None
steps = {}

def step(name, fn):
    try:
        value = fn()
        error = None
    except SystemExit as exc:
        value, error = None, (None if not exc.code else repr(exc))
    except Exception as exc:
        value, error = None, repr(exc)
    steps[name] = {"error": error, "value": value, "kernel_loaded": "rvlab.kernel" in sys.modules}

def import_cli():
    import rvlab.harness, rvlab.cli

def help_():
    from rvlab.cli import main
    main(["--help"])

def validate(name):
    from rvlab.harness import ExperimentConfig
    ExperimentConfig(experiment=name)

def call(entry, args):
    import rvlab.kernel
    return float(getattr(rvlab.kernel, entry)(*args))

def run(doc):
    from rvlab.harness import ExperimentConfig, run_experiment
    return run_experiment(ExperimentConfig(**doc), workers=1).passed

step("import", import_cli)
step("help", help_)
for name in EXPERIMENTS:
    step(f"validate {name}", lambda: validate(name))
for entry, args in CALLS:
    step(f"call {entry}", lambda: call(entry, args))
for doc in CONFIGS:
    step(f"run {doc['experiment']}", lambda: run(doc))
print(json.dumps(steps))
"""

KERNEL_CALLS = [
    ("kernel_K", (0.3, 1.0, 0.5)),
    ("constant_cH", (0.3,)),
    ("covariance_via_kernel", (0.3, 1.0, 0.5)),
    ("_inner_integral", (0.3, 1.0, 0.5, 0.5)),
]


@pytest.fixture(scope="session")
def scipy_blocked() -> dict:
    """Each step's outcome in one interpreter that cannot import scipy: ``help``,
    ``import``, ``validate <experiment>``, ``call <kernel entry>`` and ``run
    <experiment>`` at criterion 10's configs."""
    import rvlab
    from rvlab.harness import registered_experiments
    from test_harness import GOLDEN_CONFIGS

    configs = [config.echo() for config in GOLDEN_CONFIGS]
    probe = (
        f"CALLS = {KERNEL_CALLS!r}\nCONFIGS = {configs!r}\n"
        f"EXPERIMENTS = {registered_experiments()!r}\n{_PROBE}"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(rvlab.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])
