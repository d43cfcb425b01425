"""Command-line interface.

Subcommands: ``fbm`` (sample a path), ``variation``, ``ito-check``,
``bessel``, ``kernel-check``, and ``run`` (JSON config through the
experiment registry).  ``--seed`` falls back to the ``RVL_DEFAULT_SEED``
environment variable.  Exit codes: 0 pass, 1 tolerance failure,
2 configuration/gate error, 3 numerical failure.
"""

from __future__ import annotations

import dataclasses
import io
import sys
from typing import Callable

import click

from .core import SeedSpec, UniformGrid, write_path_csv
from .errors import ConfigError, NumericalError, RvlabError
from .fbm import SAMPLERS, sample_fbm_multi, sampler
from .harness import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_TOLERANCE,
    ExperimentConfig,
    registered_experiments,
    run_experiment,
)
from .ito import INTEGRANDS
from .parallel import default_workers
from .report import write_text

seed_option = click.option(
    "--seed", type=int, default=0, envvar="RVL_DEFAULT_SEED", show_default=True,
    help="Master seed (env fallback: RVL_DEFAULT_SEED).",
)
workers_option = click.option(
    "--workers", type=click.IntRange(min=1), default=None,
    help="Worker processes, at most one per logical core; defaults to logical cores.",
)
out_option = click.option("--out", type=click.Path(dir_okay=False), default=None)
format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
    show_default=True,
)


def _csv(text: str, cast: Callable, option: str) -> list:
    try:
        return [cast(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {option} value {text!r}: {exc}") from exc


def _dispatch(config: ExperimentConfig, workers: int | None) -> int:
    report = run_experiment(config, workers=workers or default_workers())
    text = report.to_csv() if config.output_format == "csv" else report.to_json()
    if not config.output_path:
        click.echo(text, nl=False)
    for name, ok in report.flags.items():
        click.echo(f"# {name}: {'pass' if ok else 'FAIL'}", err=True)
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def _exit_code(exc: RvlabError) -> int:
    if isinstance(exc, NumericalError):
        return EXIT_NUMERICAL
    return EXIT_CONFIG


def _run(make_config: Callable[[], ExperimentConfig], workers: int | None) -> None:
    try:
        code = _dispatch(make_config(), workers)
    except RvlabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(_exit_code(exc))
    sys.exit(code)


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
@seed_option
@out_option
def fbm_cmd(hurst, horizon, grid_size, dim, method, replication, seed, out):
    """Sample one fBm path and write it as CSV (t,value or t,v1,...,vd)."""
    try:
        grid = UniformGrid(horizon, grid_size)
        spec = SeedSpec(seed, replication)
        if dim == 1:
            path = sampler(method)(hurst, grid, spec)
        else:
            path = sample_fbm_multi(hurst, dim, grid, spec, method=method)
        if out:
            text = io.StringIO()
            write_path_csv(path, text)
            write_text(out, text.getvalue())
        else:
            write_path_csv(path, sys.stdout)
    except RvlabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(_exit_code(exc))


@main.command("variation")
@click.option("--hurst", type=float, required=True)
@click.option("--horizon", type=float, default=1.0, show_default=True)
@click.option("--grids", default="64,256,1024,4096", show_default=True)
@click.option("--paths", type=int, default=200, show_default=True)
@seed_option
@workers_option
@out_option
@format_option
def variation_cmd(hurst, horizon, grids, paths, seed, workers, out, fmt):
    """fBm 1/H-variation convergence experiment."""
    _run(
        lambda: ExperimentConfig(
            experiment="fbm-variation", hurst=hurst, horizon=horizon,
            grid_sizes=_csv(grids, int, "--grids"), replications=paths, master_seed=seed,
            output_path=out, output_format=fmt,
        ),
        workers,
    )


@main.command("ito-check")
@click.option("--hurst", type=float, required=True)
@click.option("--spec", "integrand", default="quadratic", show_default=True,
              type=click.Choice(sorted(INTEGRANDS)),
              help="Registered integrand label.")
@click.option("--dim", type=int, default=1, show_default=True)
@click.option("--mode", type=click.Choice(["variation", "scaling"]),
              default="variation", show_default=True)
@click.option("--horizon", type=float, default=1.0, show_default=True)
@click.option("--grids", default="64,256,1024,4096", show_default=True)
@click.option("--paths", type=int, default=200, show_default=True)
@seed_option
@workers_option
@out_option
@format_option
def ito_check_cmd(hurst, integrand, dim, mode, horizon, grids, paths, seed,
                  workers, out, fmt):
    """Divergence-integral variation (Thm 4.2 / 5.3) or L^p-scaling check."""
    if mode == "scaling":
        experiment = "lp-scaling"
    else:
        experiment = "divergence-variation" if dim == 1 else "divergence-variation-multi"
    _run(
        lambda: ExperimentConfig(
            experiment=experiment, hurst=hurst, dimension=dim, horizon=horizon,
            grid_sizes=_csv(grids, int, "--grids"), replications=paths, master_seed=seed,
            output_path=out, output_format=fmt, params={"integrand": integrand},
        ),
        workers,
    )


@main.command("bessel")
@click.option("--dim", type=int, default=3, show_default=True)
@click.option("--hurst", type=float, required=True)
@click.option("--horizon", type=float, default=1.0, show_default=True)
@click.option("--grids", default="64,256,1024,4096", show_default=True)
@click.option("--paths", type=int, default=200, show_default=True)
@click.option("--experiment", "which",
              type=click.Choice(["variation", "moments", "selfsim"]),
              default="variation", show_default=True)
@click.option("--q", type=float, default=1.0, show_default=True,
              help="Moment order for --experiment moments.")
@click.option("--t-list", default="0.25,0.5,1,2", show_default=True,
              help="Times for --experiment moments.")
@click.option("--a-list", default="2,4", show_default=True,
              help="Scale factors for --experiment selfsim.")
@click.option("--t", type=float, default=0.5, show_default=True,
              help="Base time for --experiment selfsim.")
@seed_option
@workers_option
@out_option
@format_option
def bessel_cmd(dim, hurst, horizon, grids, paths, which, q, t_list, a_list, t,
               seed, workers, out, fmt):
    """Fractional Bessel process experiments."""
    name = {"variation": "theta-variation", "moments": "negative-moments",
            "selfsim": "self-similarity"}[which]

    def make_config() -> ExperimentConfig:
        params: dict = {}
        if which == "moments":
            params = {"q": q, "t_list": _csv(t_list, float, "--t-list")}
        elif which == "selfsim":
            params = {"a_list": _csv(a_list, float, "--a-list"), "t": t}
        return ExperimentConfig(
            experiment=name, hurst=hurst, dimension=dim, horizon=horizon,
            grid_sizes=_csv(grids, int, "--grids"), replications=paths, master_seed=seed,
            output_path=out, output_format=fmt, params=params,
        )

    _run(make_config, workers)


@main.command("kernel-check")
@click.option("--hurst", type=float, required=True)
@click.option("--tol", type=float, default=1e-7, show_default=True,
              help="Quadrature tolerance for the reproduction integrals.")
@click.option("--lattice", type=int, default=5, show_default=True)
@click.option("--horizon", type=float, default=1.0, show_default=True)
@workers_option
@out_option
@format_option
def kernel_check_cmd(hurst, tol, lattice, horizon, workers, out, fmt):
    """Covariance reproduction identity of the Volterra kernel; emits
    t,s,lhs,rhs,rel_err rows."""
    _run(
        lambda: ExperimentConfig(
            experiment="kernel-check", hurst=hurst, horizon=horizon,
            output_path=out, output_format=fmt,
            params={"rtol": tol, "lattice": lattice},
        ),
        workers,
    )


@main.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@workers_option
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
