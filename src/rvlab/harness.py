"""Experiment registry, configuration ingestion, deterministic execution and
report emission.

A configuration is a single JSON document; unknown keys are errors.  Every
report is a pure function of (config, build): randomness flows only through
the master seed, replications own derived streams, and reductions run in
replication-index order, so worker count never changes a byte of output.

Exit codes: 0 pass, 1 acceptance-tolerance failure, 2 configuration or gate
error, 3 numerical failure.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import bessel, fbm, ito, kernel
from .core import HurstParam, SeedSpec, UniformGrid
from .errors import ConfigError
from .parallel import replication_map
from .report import Report, aggregate, build_id

__all__ = [
    "ExperimentConfig",
    "run_experiment",
    "registered_experiments",
    "aggregate",
    "EXIT_OK",
    "EXIT_TOLERANCE",
    "EXIT_CONFIG",
    "EXIT_NUMERICAL",
]

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_CONFIG_KEYS = {
    "experiment",
    "hurst",
    "dimension",
    "horizon",
    "grid_sizes",
    "replications",
    "master_seed",
    "tolerances",
    "output_path",
    "output_format",
    "params",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment request; see the module docstring for semantics."""

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
        if self.experiment not in _REGISTRY:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"registered: {registered_experiments()}"
            )
        HurstParam(self.hurst)  # range gate
        if not self.horizon > 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        sizes = list(self.grid_sizes)
        if not sizes or any(int(n) != n or n < 1 for n in sizes) or sizes != sorted(set(sizes)):
            raise ConfigError("grid_sizes must be strictly increasing positive integers")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        SeedSpec(self.master_seed)  # 64-bit gate
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output format must be csv or json, got {self.output_format!r}")
        spec = _REGISTRY[self.experiment]
        unknown = set(self.params) - spec.param_keys
        if unknown:
            raise ConfigError(
                f"unknown params for {self.experiment!r}: {sorted(unknown)}; "
                f"allowed: {sorted(spec.param_keys)}"
            )
        unknown_tol = set(self.tolerances) - spec.tolerance_keys
        if unknown_tol:
            raise ConfigError(
                f"unknown tolerances for {self.experiment!r}: {sorted(unknown_tol)}; "
                f"allowed: {sorted(spec.tolerance_keys)}"
            )

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in doc:
            raise ConfigError("config needs an 'experiment' key")
        kwargs = dict(doc)
        if "grid_sizes" in kwargs:
            kwargs["grid_sizes"] = tuple(int(n) for n in kwargs["grid_sizes"])
        return cls(**kwargs)

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
        return {
            "experiment": self.experiment,
            "hurst": self.hurst,
            "dimension": self.dimension,
            "horizon": self.horizon,
            "grid_sizes": list(self.grid_sizes),
            "replications": self.replications,
            "master_seed": self.master_seed,
            "tolerances": dict(self.tolerances),
            "params": dict(self.params),
        }


@dataclass(frozen=True)
class _ExperimentSpec:
    runner: "callable"
    param_keys: frozenset
    tolerance_keys: frozenset
    default_tolerances: dict


def _maybe_int(value):
    return None if value is None else int(value)


def _tol(config: ExperimentConfig, key: str) -> float:
    spec = _REGISTRY[config.experiment]
    return float(config.tolerances.get(key, spec.default_tolerances[key]))


# Integrand of each divergence experiment when params name none.
_DEFAULT_INTEGRAND = {
    "divergence-variation": "quadratic",
    "divergence-variation-multi": "radial_quadratic",
}


def _run_variation(config: ExperimentConfig, workers: int) -> Report:
    params = config.params
    report = ito.variation_experiment(
        config.experiment,
        config.hurst,
        config.horizon,
        list(config.grid_sizes),
        config.replications,
        SeedSpec(config.master_seed),
        workers=workers,
        method=params.get("method", "circulant"),
        integrand=params.get("integrand", _DEFAULT_INTEGRAND.get(config.experiment)),
        dimension=config.dimension,
        xi_draws=int(params.get("xi_draws", ito.DEFAULT_XI_DRAWS)),
        xi_paths=_maybe_int(params.get("xi_paths")),
    )
    report.flags["rel_err_final_ok"] = report.rows[-1][4] < _tol(config, "rel_err_final")
    return report


def _run_negative_moments(config: ExperimentConfig, workers: int) -> Report:
    report = bessel.negative_moment_experiment(
        config.dimension,
        float(config.params.get("q", 1.0)),
        config.hurst,
        [float(t) for t in config.params.get("t_list", (0.25, 0.5, 1.0, 2.0))],
        config.replications,
        SeedSpec(config.master_seed),
        workers=workers,
        method=config.params.get("method", "circulant"),
    )
    slope_ok = abs(report.extra["slope"] - report.extra["slope_target"]) <= _tol(
        config, "slope_tol"
    )
    intercept_ok = abs(
        report.extra["intercept"] - report.extra["intercept_target"]
    ) <= _tol(config, "intercept_tol")
    report.flags["slope_ok"] = bool(slope_ok)
    report.flags["intercept_ok"] = bool(intercept_ok)
    return report


def _run_self_similarity(config: ExperimentConfig, workers: int) -> Report:
    t = float(config.params.get("t", 0.5))
    a_list = [float(a) for a in config.params.get("a_list", (2.0, 4.0))]
    control = config.params.get("control", True)
    return bessel.self_similarity_suite(
        config.dimension,
        config.hurst,
        [(a, t) for a in a_list],
        config.replications,
        SeedSpec(config.master_seed),
        workers=workers,
        grid_size=int(config.params.get("grid_size", 1024)),
        method=config.params.get("method", "circulant"),
        level=float(config.params.get("level", bessel.DEFAULT_KS_LEVEL)),
        control_a=max(a_list) if control else None,
    )


def _run_lp_scaling(config: ExperimentConfig, workers: int) -> Report:
    integrand = config.params.get("integrand", "identity")
    intervals = config.params.get("intervals")
    if intervals is not None:
        intervals = [(float(a), float(b)) for a, b in intervals]
    report = ito.lp_scaling_experiment(
        integrand,
        config.hurst,
        config.horizon,
        intervals,
        config.replications,
        SeedSpec(config.master_seed),
        workers=workers,
        grid_size=int(config.params.get("grid_size", 4096)),
        method=config.params.get("method", "circulant"),
    )
    default = 0.05 if integrand == "identity" else 0.15
    tol = float(config.tolerances.get("slope_tol", default))
    report.flags["slope_ok"] = abs(report.extra["slope"] - 1.0) <= tol
    return report


def _run_kernel_check(config: ExperimentConfig, workers: int) -> Report:
    hp = HurstParam(config.hurst)
    hp.require_rough("the kernel reproduction check")
    rows = kernel.kernel_check_table(
        hp,
        horizon=config.horizon,
        lattice=int(config.params.get("lattice", 5)),
        rtol=float(config.params.get("rtol", kernel.DEFAULT_L2_TOL)),
    )
    tol = _tol(config, "rel_err_max")
    worst = max(r[4] for r in rows)
    return Report(
        columns=("t", "s", "lhs", "rhs", "rel_err"),
        rows=rows,
        extra={"max_rel_err": worst},
        flags={"reproduction_ok": worst < tol},
        meta={"experiment": "kernel-check", "hurst": hp.h, "build": build_id()},
    )


def _cov_rep(args: tuple, r: int) -> tuple:
    h, horizon, n, master, base, method = args
    grid = UniformGrid(horizon, n)
    return tuple(fbm.sampler(method)(h, grid, SeedSpec(master, base + r)).values[1:])


def _run_covariance_check(config: ExperimentConfig, workers: int) -> Report:
    """Entrywise z-scores of empirical vs exact covariance for both samplers.

    Uses the known-mean second-moment estimator, whose exact standard error
    per entry is sqrt((R_ii R_jj + R_ij^2) / M); sampler agreement compares
    the two independent estimates against sqrt(2) times that.  Runs on the
    first (and normally only) entry of grid_sizes.
    """
    h = config.hurst
    n = config.grid_sizes[0]
    m = config.replications
    t = np.arange(1, n + 1) * (config.horizon / n)
    exact = fbm.covariance(h, t[:, None], t[None, :])
    se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / m)
    threshold = _tol(config, "max_z")
    empirical = {}
    for arm, method in enumerate(("cholesky", "circulant")):
        args = (h, config.horizon, n, config.master_seed, arm * m, method)
        draws = replication_map(functools.partial(_cov_rep, args), m, workers)
        x = np.asarray(draws)
        empirical[method] = x.T @ x / m
    rows = []
    flags = {}
    for method in ("cholesky", "circulant"):
        max_z = float(np.max(np.abs(empirical[method] - exact) / se))
        ok = max_z <= threshold
        rows.append((f"{method}_vs_exact", max_z, n * n, threshold, ok))
        flags[f"{method}_matches_covariance"] = ok
    diff_z = float(
        np.max(np.abs(empirical["cholesky"] - empirical["circulant"]) / (np.sqrt(2) * se))
    )
    ok = diff_z <= threshold
    rows.append(("cholesky_vs_circulant", diff_z, n * n, threshold, ok))
    flags["samplers_agree"] = ok
    return Report(
        columns=("check", "max_abs_z", "entries", "threshold", "ok"),
        rows=rows,
        extra={},
        flags=flags,
        meta={
            "experiment": "covariance-check",
            "hurst": h,
            "grid_n": n,
            "replications": m,
            "master_seed": config.master_seed,
            "build": build_id(),
        },
    )


_REGISTRY: dict[str, _ExperimentSpec] = {}


def _register(name, runner, params=(), tolerances=None):
    tolerances = tolerances or {}
    _REGISTRY[name] = _ExperimentSpec(
        runner=runner,
        param_keys=frozenset(params),
        tolerance_keys=frozenset(tolerances),
        default_tolerances=dict(tolerances),
    )


_register(
    "fbm-variation", _run_variation, params=("method",),
    tolerances={"rel_err_final": 0.05},
)
_register(
    "divergence-variation", _run_variation, params=("integrand", "method"),
    tolerances={"rel_err_final": 0.10},
)
_register(
    "divergence-variation-multi", _run_variation,
    params=("integrand", "method", "xi_draws", "xi_paths"),
    tolerances={"rel_err_final": 0.10},
)
_register(
    "theta-variation", _run_variation,
    params=("method", "xi_draws", "xi_paths"),
    tolerances={"rel_err_final": 0.10},
)
_register(
    "negative-moments", _run_negative_moments,
    params=("q", "t_list", "method"),
    tolerances={"slope_tol": 0.02, "intercept_tol": 0.05},
)
_register(
    "self-similarity", _run_self_similarity,
    params=("t", "a_list", "grid_size", "method", "level", "control"),
)
_register(
    "lp-scaling", _run_lp_scaling,
    params=("integrand", "intervals", "grid_size", "method"),
    tolerances={"slope_tol": None},
)
_register(
    "kernel-check", _run_kernel_check, params=("lattice", "rtol"),
    tolerances={"rel_err_max": 1e-4},
)
_register(
    "covariance-check", _run_covariance_check,
    tolerances={"max_z": 3.0},
)


def registered_experiments() -> list[str]:
    return sorted(_REGISTRY)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> Report:
    """Validate gates, run the experiment, stamp metadata, emit the report.

    The returned report (and any file written) is a pure function of the
    config; wall time is kept in memory only.
    """
    started = time.perf_counter()
    report = _REGISTRY[config.experiment].runner(config, workers)
    report.meta["config"] = config.echo()
    report.meta["build"] = build_id()
    report.meta["wall_time_s"] = time.perf_counter() - started
    report.meta["workers"] = workers
    if config.output_path:
        report.write(config.output_path, config.output_format)
    return report
