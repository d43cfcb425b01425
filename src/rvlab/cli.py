"""Command-line interface.

Subcommands: ``fbm`` (sample a path), one per registered experiment, named
after it, ``run`` (JSON config through the experiment registry) and
``experiments`` (list the registered names).  Exit codes: 0 pass,
1 tolerance failure, 2 configuration/gate error, 3 numerical failure or a
run out of memory.

An experiment subcommand has one option per top-level field and param the
experiment reads, named after it with ``_`` as ``-`` (``master_seed`` is
``--seed``) and typed by its registry default.  Only given options reach the
config, so every default is the registry's.  A list takes JSON values
without the brackets: ``--t-list 0.25,0.5``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
from typing import Callable

import click

from .core import SeedSpec, UniformGrid, write_path_csv
from .errors import ConfigError, NumericalError, RvlabError
from .fbm import SAMPLERS, sample_fbm_multi
from .harness import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_TOLERANCE,
    ExperimentConfig,
    declared,
    registered_experiments,
    run_experiment,
)
from .ito import INTEGRANDS
from .parallel import default_workers
from .report import write_text

_WORKERS = {
    "type": click.IntRange(min=1),
    "help": "Worker processes, at most one per logical core; defaults to logical cores.",
}
out_option = click.option("--out", type=click.Path(dir_okay=False), default=None)
_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _exit_code(exc: Exception) -> int:
    return EXIT_NUMERICAL if isinstance(exc, (NumericalError, MemoryError)) else EXIT_CONFIG


def _fail(exc: Exception) -> None:
    text = f"out of memory: {exc}" if isinstance(exc, MemoryError) else exc
    click.echo(f"error: {text}", err=True)
    sys.exit(_exit_code(exc))


def _run(make_config: Callable[[], ExperimentConfig], workers: int | None) -> None:
    try:
        config = make_config()
        report = run_experiment(config, workers=workers or default_workers())
    except (RvlabError, MemoryError) as exc:
        _fail(exc)
    text = report.to_csv() if config.output_format == "csv" else report.to_json()
    if not config.output_path:
        click.echo(text, nl=False)
    for name, ok in report.flags.items():
        click.echo(f"# {name}: {'pass' if ok else 'FAIL'}", err=True)
    sys.exit(EXIT_OK if report.passed else EXIT_TOLERANCE)


@click.group()
@click.version_option()
def main() -> None:
    """Rough-variation laboratory: exact fBm simulation and limit-theorem
    experiments at desk scale."""


@main.command("fbm")
@click.option("--hurst", type=float, required=True)
@click.option("--horizon", type=float, default=1.0, show_default=True)
@click.option("--grid-size", type=int, default=1024, show_default=True)
@click.option("--dim", type=int, default=1, show_default=True)
@click.option("--method", type=click.Choice(SAMPLERS),
              default="circulant", show_default=True)
@click.option("--replication", type=int, default=0, show_default=True,
              help="Replication index of the stream to draw.")
@click.option("--seed", type=int, default=0, show_default=True, help="Master seed.")
@out_option
def fbm_cmd(hurst, horizon, grid_size, dim, method, replication, seed, out):
    """Sample one fBm path and write it as CSV (t,value or t,v1,...,vd)."""
    try:
        grid = UniformGrid(horizon, grid_size)
        path = sample_fbm_multi(hurst, dim, grid, SeedSpec(seed, replication), method=method)
        if out:
            text = io.StringIO()
            write_path_csv(path, text)
            write_text(out, text.getvalue())
        else:
            write_path_csv(path, sys.stdout)
    except (RvlabError, MemoryError) as exc:
        _fail(exc)


def _option(key: str, default) -> click.Option:
    """The option of field or param ``key``, typed by its registry ``default``."""
    flag = "--seed" if key == "master_seed" else "--" + key.replace("_", "-")
    decls, kind, metavar = [flag, key], type(default), None
    if isinstance(default, (list, tuple)):
        kind, metavar = str, "ITEM,..."
    elif key == "integrand":
        kind = click.Choice(sorted(INTEGRANDS))
    shown = str(default).strip("()[]").replace(" ", "")
    return click.Option(decls, type=kind, default=None, metavar=metavar, help=f"default {shown}")


def _given(key: str, default, value):
    """A given option value as the config takes it; a list is JSON without brackets."""
    if not isinstance(default, (list, tuple)):
        return value
    try:
        return json.loads(f"[{value}]")
    except json.JSONDecodeError as exc:
        pos = exc.pos - 1  # in what was typed, without the added "["
        where = f"char {pos}" if pos < len(value) else "the end"
        raise ConfigError(
            f"bad --{key.replace('_', '-')} value {value!r}: {exc.msg} at {where}"
        ) from exc


def _experiment_command(experiment: str) -> click.Command:
    """Subcommand ``experiment``: one option per field and param it reads."""
    defaults = declared(experiment)

    def callback(workers, **options):
        def make_config() -> ExperimentConfig:
            values = {key: _given(key, defaults.get(key), value)
                      for key, value in options.items() if value is not None}
            params = {key: values.pop(key) for key in list(values) if key not in _FIELDS}
            return ExperimentConfig(experiment=experiment, **values, params=params)

        _run(make_config, workers)

    params = [_option(key, default) for key, default in defaults.items()]
    params += [
        click.Option(["--workers"], **_WORKERS),
        click.Option(["--out", "output_path"], type=click.Path(dir_okay=False)),
        click.Option(["--format", "output_format"], type=click.Choice(["csv", "json"])),
    ]
    return click.Command(
        experiment, callback=callback, params=params, help=f"Run the {experiment} experiment."
    )


for _name in registered_experiments():
    main.add_command(_experiment_command(_name))


@main.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--workers", **_WORKERS)
@out_option
def run_cmd(config_path, workers, out):
    """Run an experiment described by a JSON config file."""
    with open(config_path, "r", encoding="utf-8") as fh:
        text = fh.read()

    def make_config() -> ExperimentConfig:
        config = ExperimentConfig.from_json(text)
        return dataclasses.replace(config, output_path=out) if out else config

    _run(make_config, workers)


@main.command("experiments")
def experiments_cmd():
    """List registered experiment names."""
    for name in registered_experiments():
        click.echo(name)


if __name__ == "__main__":
    main()
