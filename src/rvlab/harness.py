"""Experiment registry, configuration ingestion, deterministic execution and
report emission.

A configuration is a single JSON document; unknown keys are errors.  Every
report is a pure function of (config, build): randomness flows only through
the master seed, replications own derived streams, and reductions run in
replication-index order, so worker count never changes a byte of output.
The registry below is the one place that names experiments.

Exit codes: 0 pass, 1 acceptance-tolerance failure, 2 configuration or gate
error, 3 numerical failure.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import bessel, fbm, ito, kernel
from .core import SeedSpec, UniformGrid, check_hurst, check_path_size
from .errors import ConfigError
from .report import Report, build_id, check_shape

__all__ = [
    "ExperimentConfig",
    "declared",
    "run_experiment",
    "registered_experiments",
    "EXIT_OK",
    "EXIT_TOLERANCE",
    "EXIT_CONFIG",
    "EXIT_NUMERICAL",
]

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_KINDS = {int: "an integer", float: "a finite number", str: "a string", dict: "an object"}


def _typed(name: str, value, like):
    """``value`` checked against the JSON type of ``like``.

    An int takes an int but not a bool, a float a finite int or float
    (returned as a float) but not a bool, and a list a non-empty list or
    tuple whose elements match ``like[0]`` (returned as the type of
    ``like``).
    """
    if isinstance(like, (list, tuple)):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
        return type(like)(_typed(f"{name}[{i}]", v, like[0]) for i, v in enumerate(value))
    kind = type(like)
    if kind is float and isinstance(value, (int, float)):
        ok = abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind)
    if not ok or isinstance(value, bool):
        raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return float(value) if kind is float else value


# Fields only some experiments read; the others must leave them at their defaults.
# All read ``hurst`` and accept ``master_seed``, so a seed sweep can run any config.
_SCOPED = ("dimension", "horizon", "grid_sizes", "replications")


class _Derived(NamedTuple):
    """A default worked out from the rest of the config; ``like`` gives its type."""

    like: object
    of: Callable


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment request; see the module docstring for semantics.

    Every field with a default, and every param and tolerance, takes the JSON
    type of its default (see :func:`_typed`); ints given for floats are
    stored as floats.  Params and tolerances hold only the keys the config
    gave; the registered runners read them, defaults included, through
    :meth:`param`, and take the rest of the config as checked here.
    """

    experiment: str
    hurst: float = 0.3
    dimension: int = 1
    horizon: float = 1.0
    grid_sizes: tuple[int, ...] = (64, 256, 1024, 4096)
    replications: int = 200
    master_seed: int = 0
    tolerances: dict = field(default_factory=dict)
    output_path: str | None = None
    output_format: str = "csv"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in _REGISTRY:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"registered: {registered_experiments()}"
            )
        spec = _REGISTRY[self.experiment]
        for f in dataclasses.fields(self):
            like = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            if like is not None and like is not dataclasses.MISSING:
                object.__setattr__(self, f.name, _typed(f.name, getattr(self, f.name), like))
        for group in ("params", "tolerances"):
            given, declared = getattr(self, group), getattr(spec, group)
            unknown = set(given) - set(declared)
            if unknown:
                raise ConfigError(
                    f"unknown {group} for {self.experiment!r}: {sorted(unknown)}; "
                    f"allowed: {sorted(declared)}"
                )
            typed = {
                key: _typed(f"{group}.{key}", value, getattr(declared[key], "like", declared[key]))
                for key, value in given.items()
            }
            object.__setattr__(self, group, typed)
        for key, bound in self.tolerances.items():  # no run meets a bound of 0 or less
            if not bound > 0:
                raise ConfigError(f"tolerances.{key} must be positive, got {bound}")
        if self.output_path is not None:
            if not isinstance(self.output_path, str):
                raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
            folder = os.path.dirname(os.path.abspath(self.output_path))
            if not os.path.isdir(folder):
                raise ConfigError(f"cannot write {self.output_path!r}: no directory {folder!r}")
        check_hurst(self.hurst)  # range gate
        if not self.horizon > 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in _SCOPED and f.name not in spec.fields and value != f.default:
                raise ConfigError(
                    f"{self.experiment!r} does not read {f.name}; got {f.name}={value}"
                )
        xi_draws = self.param("xi_draws") if "xi_draws" in spec.params else None
        check_shape(self.replications, self.grid_sizes, xi_draws)
        sizes = self.grid_sizes if "grid_sizes" in spec.fields else ()
        sizes += (self.param("grid_size"),) if "grid_size" in spec.params else ()
        for n in sizes:  # numpy's size bounds and the cell width, before anything runs
            UniformGrid(self.horizon, n)
            check_path_size(n, self.dimension)
        SeedSpec(self.master_seed)  # 64-bit gate
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output format must be csv or json, got {self.output_format!r}")

    def param(self, key: str, group: str = "params"):
        """``params[key]``, or ``tolerances[key]``, as given, else its registered default."""
        given = getattr(self, group)
        if key in given:
            return given[key]
        default = getattr(_REGISTRY[self.experiment], group)[key]
        return default.of(self) if isinstance(default, _Derived) else default

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in doc:
            raise ConfigError("config needs an 'experiment' key")
        return cls(**doc)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(doc)

    def echo(self) -> dict:
        """The config as validated, without where its report goes."""
        return {key: value for key, value in vars(self).items() if not key.startswith("output")}


@dataclass(frozen=True)
class _ExperimentSpec:
    runner: Callable  # (config, workers) -> Report, flags included
    fields: frozenset  # top-level fields read, hurst and master_seed included
    params: dict  # key -> default
    tolerances: dict  # key -> default, or a _Derived one


_REGISTRY: dict[str, _ExperimentSpec] = {}


def _register(name, runner, fields, params=None, tolerances=None):
    _REGISTRY[name] = _ExperimentSpec(
        runner, frozenset({"hurst", "master_seed", *fields}), params or {}, tolerances or {}
    )


_VARIATION = ("horizon", "grid_sizes", "replications")
_register("fbm-variation", ito.fbm_variation, _VARIATION,
          tolerances={"rel_err_final": 0.05})
_register("divergence-variation", ito.divergence_variation, _VARIATION,
          params={"integrand": "quadratic"}, tolerances={"rel_err_final": 0.10})
_register("divergence-variation-multi", functools.partial(ito.divergence_variation, nu=True),
          ("dimension", *_VARIATION),
          params={"integrand": "radial_quadratic", "xi_draws": ito.DEFAULT_XI_DRAWS},
          tolerances={"rel_err_final": 0.10})
_register("theta-variation", ito.theta_variation, ("dimension", *_VARIATION),
          params={"xi_draws": ito.DEFAULT_XI_DRAWS}, tolerances={"rel_err_final": 0.10})
_register("negative-moments", bessel.negative_moment_experiment, ("dimension", "replications"),
          params={"q": 1.0, "t_list": [0.25, 0.5, 1.0, 2.0]},
          tolerances={"slope_tol": 0.02, "intercept_tol": 0.05})
_register("self-similarity", bessel.self_similarity_suite, ("dimension", "replications"),
          params={"t": 0.5, "a_list": [2.0, 4.0], "grid_size": 1024},
          tolerances={"max_rel_dev": 1e-9})
_register("lp-scaling", ito.lp_scaling_experiment, ("horizon", "replications"),
          params={"integrand": "identity", "grid_size": 4096},
          # criterion 09's bounds: the u = 1 exponent is held tighter
          tolerances={"slope_tol": _Derived(
              1.0, lambda c: 0.05 if c.param("integrand") == "identity" else 0.15)})
_register("kernel-check", kernel.kernel_check_experiment, ("horizon",),
          params={"lattice": 5, "rtol": kernel.DEFAULT_L2_TOL},
          tolerances={"rel_err_max": 1e-4})
_register("covariance-check", fbm.covariance_check_experiment, _VARIATION,
          tolerances={"max_z": 3.0})


def registered_experiments() -> list[str]:
    return sorted(_REGISTRY)


def declared(experiment: str) -> dict:
    """Defaults of the top-level fields, then the params, that ``experiment`` reads."""
    spec = _REGISTRY[experiment]
    fields = [f for f in dataclasses.fields(ExperimentConfig) if f.name in spec.fields]
    return {**{f.name: f.default for f in fields}, **spec.params}


def run_experiment(config: ExperimentConfig, workers: int = 1) -> Report:
    """Validate gates, run the experiment, stamp metadata, emit the report.

    The meta keys copied from the config are stamped here, not by the
    runner: the experiment and H, and the dimension, replications and seed
    of an experiment that reads them.

    The returned report (and any file written) is a pure function of the
    config.
    """
    spec = _REGISTRY[config.experiment]
    report = spec.runner(config, workers)
    # a run without replications draws nothing, so it reports no seed
    copied = [key for key in ("dimension", "replications") if key in spec.fields]
    copied += ["master_seed"] if "replications" in spec.fields else []
    report.meta.update(experiment=config.experiment, hurst=config.hurst,
                       **{key: getattr(config, key) for key in copied})
    report.meta["config"] = config.echo()
    report.meta["build"] = build_id()
    if config.output_path:
        report.write(config.output_path, config.output_format)
    return report
