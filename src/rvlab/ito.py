"""Divergence integrals via Ito representations and the one engine behind
the four 1/H-variation experiments.

Divergence (Skorohod) integrals are never discretized directly: for a
potential f the process X_t = int_0^t f'(B_s) dB_s is evaluated pathwise
through the change-of-variable formula

    X_t = f(B_t) - f(0) - H int_0^t f''(B_s) s^{2H-1} ds,

(:func:`rvlab.core.ito_representation`, shared with Theta) with the singular
time weight integrated exactly cell by cell against right-endpoint samples;
every replication draws its path through :class:`rvlab.fbm.PathJob`.  The
admissible integrands form a fixed whitelist (registered below with finite-difference validation of the supplied
derivatives); the Hoelder-regularity hypotheses behind the limit theorems
are analytic facts about those integrands, not runtime checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    LANE_XI,
    HurstParam,
    MultiPath,
    RealPath,
    SeedSpec,
    UniformGrid,
    as_hurst,
    ito_representation,
)
from .bessel import require_bessel_dimension, require_variation_gate, theta_path
from .errors import ConfigError, DegenerateInputError, NumericalError
from .fbm import PathJob
from .parallel import replication_map
from .report import CONVERGENCE_COLUMNS, ConvergenceReport, Report, aggregate, build_id
from .report import check_shape, loglog_fit
from .variation import e_H, variation_Vnq

__all__ = [
    "SmoothIntegrandSpec",
    "MultiIntegrandSpec",
    "INTEGRANDS",
    "MULTI_INTEGRANDS",
    "register_integrand",
    "register_multi_integrand",
    "divergence_reading",
    "divergence_via_ito",
    "divergence_via_ito_multi",
    "variation_experiment",
    "lp_scaling_experiment",
    "DEFAULT_XI_DRAWS",
]

# nu-integral Monte Carlo: 10^4 standard-normal draws as antithetic pairs.
DEFAULT_XI_DRAWS = 10_000
# xi columns per evaluation pass; the work array holds nodes x (_XI_BLOCK + 1)
_XI_BLOCK = 256

_FD_TOL = 1e-4


@dataclass(frozen=True)
class SmoothIntegrandSpec:
    """Potential f with its first and second derivatives.

    The integrand of the divergence process is u_s = f'(B_s); f'' drives the
    time-weighted drift term.  Supplied derivative pairs are validated by
    finite differences at registration.
    """

    f: Callable
    f_prime: Callable
    f_pp: Callable
    label: str


@dataclass(frozen=True)
class MultiIntegrandSpec:
    """Potential F on R^d with gradient and Laplacian (sum of second
    partials), validated by finite differences at registration."""

    f: Callable
    gradient: Callable
    laplacian: Callable
    label: str


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= _FD_TOL * max(1.0, abs(want))


def _validate_smooth(spec: SmoothIntegrandSpec) -> None:
    probes = (-2.3, -1.1, -0.4, 0.0, 0.6, 1.5, 2.7)
    d1, d2 = 1e-6, 1e-4
    for x in probes:
        f = spec.f
        fd_prime = (f(x + d1) - f(x - d1)) / (2 * d1)
        fd_pp = (f(x + d2) - 2 * f(x) + f(x - d2)) / d2**2
        if not _close(fd_prime, float(spec.f_prime(x))):
            raise ConfigError(
                f"integrand {spec.label!r}: f_prime disagrees with finite "
                f"differences at x={x} ({fd_prime} vs {spec.f_prime(x)})"
            )
        if not _close(fd_pp, float(spec.f_pp(x))):
            raise ConfigError(
                f"integrand {spec.label!r}: f_pp disagrees with finite "
                f"differences at x={x} ({fd_pp} vs {spec.f_pp(x)})"
            )


def _validate_multi(spec: MultiIntegrandSpec, d: int = 3) -> None:
    rng = np.random.default_rng(20240917)
    probes = [np.zeros(d)] + [rng.uniform(-2, 2, size=d) for _ in range(4)]
    d1, d2 = 1e-6, 1e-4
    for x in probes:
        grad = np.asarray(spec.gradient(x), dtype=float)
        lap_fd = 0.0
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            g_fd = (spec.f(x + d1 * e) - spec.f(x - d1 * e)) / (2 * d1)
            if not _close(g_fd, grad[i]):
                raise ConfigError(
                    f"integrand {spec.label!r}: gradient component {i} "
                    f"disagrees with finite differences at {x}"
                )
            lap_fd += (spec.f(x + d2 * e) - 2 * spec.f(x) + spec.f(x - d2 * e)) / d2**2
        if not _close(lap_fd, float(spec.laplacian(x))):
            raise ConfigError(
                f"integrand {spec.label!r}: laplacian disagrees with finite "
                f"differences at {x}"
            )


INTEGRANDS: dict[str, SmoothIntegrandSpec] = {}
MULTI_INTEGRANDS: dict[str, MultiIntegrandSpec] = {}


def register_integrand(spec: SmoothIntegrandSpec) -> SmoothIntegrandSpec:
    """Validate and add a 1-dim integrand spec to the whitelist."""
    if spec.label in INTEGRANDS:
        raise ConfigError(f"integrand label {spec.label!r} already registered")
    _validate_smooth(spec)
    INTEGRANDS[spec.label] = spec
    return spec


def register_multi_integrand(spec: MultiIntegrandSpec) -> MultiIntegrandSpec:
    """Validate and add a d-dim integrand spec to the whitelist."""
    if spec.label in MULTI_INTEGRANDS:
        raise ConfigError(f"integrand label {spec.label!r} already registered")
    _validate_multi(spec)
    MULTI_INTEGRANDS[spec.label] = spec
    return spec


def _f_identity(x):
    return np.asarray(x, dtype=float)


def _fp_identity(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _fpp_zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _f_quadratic(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * x * x


def _fp_quadratic(x):
    return np.asarray(x, dtype=float)


def _fpp_one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _f_cubic(x):
    x = np.asarray(x, dtype=float)
    return x**3 / 3.0


def _fp_cubic(x):
    x = np.asarray(x, dtype=float)
    return x * x


def _fpp_cubic(x):
    return 2.0 * np.asarray(x, dtype=float)


def _F_radial(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * np.sum(x * x, axis=-1)


def _F_radial_grad(x):
    return np.asarray(x, dtype=float)


def _F_radial_lap(x):
    x = np.asarray(x, dtype=float)
    return np.full(x.shape[:-1], float(x.shape[-1]))


def _F_linear(x):
    x = np.asarray(x, dtype=float)
    return np.sum(x, axis=-1)


def _F_linear_grad(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _F_linear_lap(x):
    x = np.asarray(x, dtype=float)
    return np.zeros(x.shape[:-1])


def _f_one(x):
    return np.ones_like(np.asarray(x, dtype=float))


# The whitelist: polynomial potentials whose integrands u = f' have the
# Hoelder and Malliavin-derivative regularity the limit theorems assume.
register_integrand(SmoothIntegrandSpec(_f_identity, _fp_identity, _fpp_zero, "identity"))
register_integrand(SmoothIntegrandSpec(_f_quadratic, _fp_quadratic, _fpp_one, "quadratic"))
register_integrand(SmoothIntegrandSpec(_f_cubic, _fp_cubic, _fpp_cubic, "cubic"))
register_integrand(SmoothIntegrandSpec(_f_one, _fpp_zero, _fpp_zero, "constant"))
register_multi_integrand(
    MultiIntegrandSpec(_F_radial, _F_radial_grad, _F_radial_lap, "radial_quadratic")
)
register_multi_integrand(
    MultiIntegrandSpec(_F_linear, _F_linear_grad, _F_linear_lap, "linear_sum")
)


def _lookup(label: str, registry: dict, kind: str):
    if label not in registry:
        raise ConfigError(
            f"unknown {kind} integrand {label!r}; registered: {sorted(registry)}"
        )
    return registry[label]


def divergence_reading(hurst: HurstParam | float) -> str:
    """Whether H supports the plain divergence reading of the Ito formula
    (H in (1/4, 1/2)) or only the extended-domain one."""
    h = as_hurst(hurst).h
    return "divergence" if 0.25 < h < 0.5 else "extended-domain"


def _on_path(fn: Callable, path: RealPath | MultiPath, label: str) -> np.ndarray:
    """``fn`` at every node of the path, checked finite."""
    values = np.asarray(fn(path.values), dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise NumericalError(
            f"{label} of the path is non-finite at node {i} (t = {path.grid.node(i)}); "
            "the integrand's growth condition overflowed"
        )
    return values


def divergence_via_ito(
    spec: SmoothIntegrandSpec, path: RealPath, hurst: HurstParam | float
) -> RealPath:
    """Pathwise X_t = int_0^t f'(B_s) dB_s via the Ito representation.

    X_t = f(B_t) - f(0) - H int_0^t f''(B_s) s^{2H-1} ds, exact in law for
    whitelisted integrands; see :func:`divergence_reading` for the H-range
    label.
    """
    h = as_hurst(hurst).h
    f_vals = _on_path(spec.f, path, f"f({spec.label})")
    fpp_vals = _on_path(spec.f_pp, path, f"f''({spec.label})")
    return ito_representation(f_vals, h, fpp_vals, path.grid, h)


def divergence_via_ito_multi(
    spec: MultiIntegrandSpec, path: MultiPath, hurst: HurstParam | float
) -> RealPath:
    """d-dimensional analogue: X_t = F(B_t) - F(0) - H int_0^t (sum_i
    d^2F/dx_i^2)(B_s) s^{2H-1} ds."""
    h = as_hurst(hurst).h
    f_vals = _on_path(spec.f, path, f"F({spec.label})")
    lap_vals = _on_path(spec.laplacian, path, f"Laplacian({spec.label})")
    return ito_representation(f_vals, h, lap_vals, path.grid, h)


def xi_mc_target(
    u_nodes: np.ndarray,
    dt: float,
    p: float,
    stream: np.random.Generator,
    draws: int = DEFAULT_XI_DRAWS,
) -> tuple[float, float]:
    """nu-integral target int_{R^d} [sum_i |<u_i, xi>|^p dt] N(0,I)(dxi).

    Monte Carlo over ``draws`` standard-normal xi arranged as antithetic
    pairs; the integrand is even in xi, so each pair contributes its base
    value and only draws/2 evaluations are needed.  Returns (estimate,
    standard error across pairs).
    """
    if draws < 4 or draws % 2:  # the bound of report.check_shape
        raise ConfigError(f"xi_draws must be an even count >= 4, got {draws}")
    pairs = draws // 2
    nodes, d = u_nodes.shape
    values = np.empty(pairs)
    # The draw blocks fix which normal lands in which xi, so they are part of
    # the report bytes; each is evaluated in _XI_BLOCK-column passes in place.
    # A lone last column joins the pass before it: numpy takes one column
    # through a matrix-vector product and a pairwise sum, with other last bits.
    chunk = max(1, min(pairs, int(4e6) // max(nodes, 1)))
    work = np.empty(nodes * min(chunk, _XI_BLOCK + 1))
    done = 0
    while done < pairs:
        take = min(chunk, pairs - done)
        xi = stream.standard_normal((d, take))
        a = 0
        while a < take:
            b = take if take - a <= _XI_BLOCK + 1 else a + _XI_BLOCK
            proj = work[: nodes * (b - a)].reshape(nodes, b - a)
            np.matmul(u_nodes, xi[:, a:b], out=proj)
            np.abs(proj, out=proj)
            np.power(proj, p, out=proj)
            values[done + a : done + b] = proj.sum(axis=0) * dt
            a = b
        done += take
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(pairs))
    return mean, se


def _cross_check(per_rep, n: int) -> tuple[float, float]:
    """Compare closed-form and xi-MC targets on the replication subset.

    Per path the two targets differ only by xi-MC noise, so the subset means
    must agree within 3 combined standard errors; a violation means the two
    target routes are internally inconsistent and aborts the experiment.
    """
    sub = [(ta, tb, se) for _, ta, _, tb, se in per_rep if math.isfinite(tb)]
    mean_a = math.fsum(ta for ta, _, _ in sub) / len(sub)
    mean_b = math.fsum(tb for _, tb, _ in sub) / len(sub)
    se_b = math.sqrt(math.fsum(se**2 for _, _, se in sub)) / len(sub)
    if not abs(mean_a - mean_b) <= 3 * se_b:  # a NaN aborts too
        raise NumericalError(
            f"closed-form and xi-Monte-Carlo targets disagree at n={n}: "
            f"{mean_a:.6f} vs {mean_b:.6f} (3 s.e. = {3 * se_b:.2e})"
        )
    return mean_b, se_b


_DUAL_TARGET_COLUMNS = CONVERGENCE_COLUMNS + ("target_mc", "target_mc_se")

# fBm is the divergence integral of the identity potential (u = 1).  fBm and
# Theta (u = B/R) have unit-norm integrands, so their limit is e_H * T in
# closed form; the d-dim cases also estimate the limit by xi Monte Carlo.
_UNIT_TARGET = ("fbm-variation", "theta-variation")
_XI_TARGET = ("divergence-variation-multi", "theta-variation")


class _VariationJob(NamedTuple):
    """One grid size of a variation experiment, as shipped to the workers."""

    paths: PathJob
    experiment: str
    integrand: str | None
    xi_draws: int
    xi_paths: int  # replications r < xi_paths carry the xi target


def _variation_rep(job: _VariationJob, r: int) -> tuple[float, ...]:
    """One replication: (V_n^{1/H}(X), target, |V - target|, xi target, xi s.e.).

    The xi pair is NaN for replications outside the xi subset.
    """
    h, p = job.paths.hurst, 1.0 / job.paths.hurst
    path = job.paths.sample(r)
    grid = path.grid
    u_norm = None  # right-endpoint ||u_s||; None when it is identically 1
    if job.experiment == "theta-variation":
        x = theta_path(path, h)
        u = path.values[1:] / np.linalg.norm(path.values[1:], axis=1)[:, None]
    elif job.experiment == "divergence-variation-multi":
        spec = MULTI_INTEGRANDS[job.integrand]
        x = divergence_via_ito_multi(spec, path, h)
        u = np.asarray(spec.gradient(path.values), dtype=float)[1:]
        u_norm = np.linalg.norm(u, axis=1)
    else:
        spec = INTEGRANDS[job.integrand]
        b = path.component(0)
        x = divergence_via_ito(spec, b, h)
        if job.experiment == "divergence-variation":
            u_norm = np.abs(np.asarray(spec.f_prime(b.values[1:]), dtype=float))
    v = variation_Vnq(x, p)
    if u_norm is None:
        target = e_H(h) * job.paths.horizon
    else:
        target = e_H(h) * math.fsum(u_norm**p) * grid.dt
    xi = (np.nan, np.nan)
    if r < job.xi_paths:
        stream = job.paths.seed.replicate(r).stream(lane=LANE_XI)
        xi = xi_mc_target(u, grid.dt, p, stream, job.xi_draws)
    return (v, target, abs(v - target), *xi)


def variation_experiment(
    experiment: str,
    hurst: HurstParam | float,
    horizon: float,
    grid_sizes: list[int],
    replications: int,
    seed: SeedSpec,
    workers: int = 1,
    method: str = "circulant",
    integrand: str | None = None,
    dimension: int = 1,
    xi_draws: int = DEFAULT_XI_DRAWS,
    xi_paths: int | None = None,
) -> ConvergenceReport:
    """L^1 convergence of V_n^{1/H}(X) to e_H int_0^T ||u_s||^{1/H} ds.

    ``experiment`` selects X: fBm itself (``fbm-variation``), the divergence
    integral of a registered 1-dim or d-dim ``integrand``
    (``divergence-variation``, ``divergence-variation-multi``), or Theta under
    the gate 2dH^2 > 1 (``theta-variation``).  Per-path targets are
    right-endpoint Riemann sums of ||u||^{1/H}; unit-norm integrands use the
    closed form e_H * T.  The d-dim cases cross-check the target against
    Monte Carlo over xi (the closed form holds because <u, xi> is
    N(0, ||u||^2) under the Gaussian xi-measure), and disagreement beyond 3
    standard errors aborts.  Only the first ``xi_paths`` replications (all
    when None, so both target columns average the same paths) carry xi.
    """
    hp = as_hurst(hurst)
    meta = {
        "experiment": experiment,
        "hurst": hp.h,
        "horizon": horizon,
        "replications": replications,
        "master_seed": seed.master_seed,
        "build": build_id(),
    }
    if experiment == "fbm-variation":
        integrand, dimension = "identity", 1
        meta["method"] = method
    elif experiment == "divergence-variation":
        integrand, dimension = _lookup(integrand, INTEGRANDS, "1-dim").label, 1
    elif experiment == "divergence-variation-multi":
        integrand = _lookup(integrand, MULTI_INTEGRANDS, "d-dim").label
    elif experiment == "theta-variation":
        require_variation_gate(dimension, hp)
        require_bessel_dimension(dimension)
    else:
        raise ConfigError(f"unknown variation experiment {experiment!r}")
    dual = experiment in _XI_TARGET
    xi_paths = replications if xi_paths is None else xi_paths
    if dual:
        check_shape(replications, grid_sizes, xi_paths, xi_draws)
    else:
        check_shape(replications, grid_sizes)
    if experiment.startswith("divergence"):
        meta.update(integrand=integrand, reading=divergence_reading(hp))
    if dual:
        meta.update(dimension=dimension, xi_draws=xi_draws, xi_paths=xi_paths)
    rows = []
    for n in grid_sizes:
        job = _VariationJob(
            PathJob(hp.h, dimension, horizon, n, seed, method),
            experiment, integrand, xi_draws, xi_paths if dual else 0,
        )
        per_rep = replication_map(functools.partial(_variation_rep, job), replications, workers)
        target_mc = _cross_check(per_rep, n) if dual else ()
        est, _ = aggregate([v for v, *_ in per_rep])
        if experiment in _UNIT_TARGET:
            target = horizon * e_H(hp)
        else:
            target, _ = aggregate([t for _, t, *_ in per_rep])
            if target == 0.0:
                raise DegenerateInputError(
                    f"integrand {integrand!r} has an identically zero variation target"
                )
        abs_err, stderr = aggregate([dev for _, _, dev, *_ in per_rep])
        rows.append((n, est, target, abs_err, abs_err / abs(target), stderr, *target_mc))
    flags = {"monotone_decreasing": _strictly_decreasing([row[4] for row in rows])}
    if dual:
        flags["targets_agree_3se"] = True  # enforced by _cross_check; a violation raises
    columns = _DUAL_TARGET_COLUMNS if dual else CONVERGENCE_COLUMNS
    return ConvergenceReport(columns=columns, rows=rows, flags=flags, meta=meta)


def _strictly_decreasing(values: list[float]) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def default_interval_pairs(horizon: float) -> list[tuple[float, float]]:
    """Nested intervals [T/4, T/4 + w] with w = T/16 .. T/256."""
    a = horizon / 4
    return [(a, a + horizon / k) for k in (16, 32, 64, 128, 256)]


def _lp_rep(paths: PathJob, label: str, index_pairs: tuple, r: int) -> list[float]:
    x = divergence_via_ito(INTEGRANDS[label], paths.sample(r).component(0), paths.hurst)
    p = 1.0 / paths.hurst
    return [float(np.abs(x.values[ib] - x.values[ia]) ** p) for ia, ib in index_pairs]


def lp_scaling_experiment(
    label: str,
    hurst: HurstParam | float,
    horizon: float,
    interval_pairs: list[tuple[float, float]] | None,
    replications: int,
    seed: SeedSpec,
    workers: int = 1,
    grid_size: int = 4096,
    method: str = "circulant",
) -> Report:
    """Scaling-exponent check of E|X_b - X_a|^{1/H} against (b - a).

    Fits a log-log regression over nested intervals away from the origin
    (a >= T/4); the dominant moment bound scales like (b-a)^{pH} with
    p = 1/H, i.e. unit slope.  Only the exponent is testable: the bound's
    constant is not explicit, so the fitted intercept is reported, not
    asserted.
    """
    hp = as_hurst(hurst)
    spec = _lookup(label, INTEGRANDS, "1-dim")
    if interval_pairs is None:
        interval_pairs = default_interval_pairs(horizon)
    if any(len(pair) != 2 for pair in interval_pairs):
        raise ConfigError(f"intervals must be (a, b) pairs, got {interval_pairs}")
    widths = [b - a for a, b in interval_pairs]
    if len(set(widths)) < 3:
        raise ConfigError("scaling regression needs at least 3 distinct interval widths")
    grid = UniformGrid(horizon, grid_size)
    index_pairs = []
    for a, b in interval_pairs:
        if not (0 < a < b <= horizon):
            raise ConfigError(f"bad interval ({a}, {b})")
        if a < horizon / 4 - 1e-12:
            raise ConfigError(f"intervals must stay away from 0: a >= T/4, got a={a}")
        index_pairs.append((grid.index_of(a), grid.index_of(b)))
    check_shape(replications)

    paths = PathJob(hp.h, 1, horizon, grid_size, seed, method)
    rep = functools.partial(_lp_rep, paths, spec.label, tuple(index_pairs))
    per_rep = replication_map(rep, replications, workers)
    rows = []
    means = []
    for k, width in enumerate(widths):
        mean, stderr = aggregate([per_rep[r][k] for r in range(replications)])
        rows.append((width, mean, stderr))
        means.append(mean)
    if any(m <= 0 for m in means):
        raise DegenerateInputError(
            "all sampled moments vanish for some interval; the integrand is "
            "degenerate (constant potential?)"
        )
    slope, intercept, r2 = loglog_fit(widths, means)
    meta = {
        "experiment": "lp-scaling",
        "integrand": spec.label,
        "hurst": hp.h,
        "horizon": horizon,
        "grid_size": grid_size,
        "replications": replications,
        "master_seed": seed.master_seed,
        "reading": divergence_reading(hp),
        "build": build_id(),
    }
    extra = {"slope": slope, "intercept": intercept, "r_squared": r2, "slope_target": 1.0}
    return Report(columns=("width", "estimate", "stderr"), rows=rows, extra=extra, meta=meta)
