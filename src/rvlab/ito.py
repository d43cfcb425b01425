"""Divergence integrals via Ito representations and the one engine behind
the four 1/H-variation experiments.

Divergence (Skorohod) integrals are never discretized directly: for a
potential F on R^d the process X_t = int_0^t grad F(B_s) dB_s is evaluated
pathwise through the change-of-variable formula

    X_t = F(B_t) - F(0) - H int_0^t (Laplacian F)(B_s) s^{2H-1} ds,

(:func:`rvlab.core.ito_representation`, shared with Theta) with the singular
time weight integrated exactly cell by cell against right-endpoint samples;
d = 1 is the scalar case X_t = int_0^t F'(B_s) dB_s.  Every replication draws
its path through :class:`rvlab.fbm.PathJob`.  The admissible integrands form
a fixed whitelist (registered below with finite-difference validation of the
supplied derivatives); the Hoelder-regularity hypotheses behind the limit
theorems are analytic facts about those integrands, not runtime checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .core import (
    LANE_XI,
    MultiPath,
    RealPath,
    SeedSpec,
    UniformGrid,
    check_hurst,
    ito_representation,
)
from .bessel import require_bessel_dimension, require_variation_gate, theta_path
from .errors import ConfigError, DegenerateInputError, NumericalError
from .fbm import PathJob
from .parallel import replication_map
from .report import (
    CONVERGENCE_COLUMNS,
    ConvergenceReport,
    Report,
    aggregate,
    loglog_fit,
    root_sum_squares,
    scaled_mean,
)
from .variation import e_H, variation_Vnq

if TYPE_CHECKING:
    from .harness import ExperimentConfig

__all__ = [
    "IntegrandSpec",
    "INTEGRANDS",
    "register_integrand",
    "divergence_reading",
    "divergence_via_ito",
    "divergence_via_ito_multi",
    "variation_experiment",
    "lp_scaling_experiment",
    "DEFAULT_XI_DRAWS",
]

# nu-integral Monte Carlo: 4,000 standard-normal draws as antithetic pairs.
# With the radius integrated out, this gives criteria 05 and 06 a smaller
# standard error than 10,000 draws of the plain estimator did.
DEFAULT_XI_DRAWS = 4_000
# xi columns per evaluation pass; the work array holds nodes x (_XI_BLOCK + 1)
_XI_BLOCK = 256

_FD_TOL = 1e-4


@dataclass(frozen=True)
class IntegrandSpec:
    """Potential F on R^d with gradient and Laplacian (sum of second
    partials), each acting on the last axis; d = 1 is the scalar case, with
    integrand u = F'.  Validated by finite differences at registration."""

    f: Callable
    gradient: Callable
    laplacian: Callable
    label: str


def _validate(spec: IntegrandSpec) -> None:
    """Finite-difference check of gradient and Laplacian at d = 1 and d = 3,
    so a spec wrong in only one of them is caught; probes are evaluated as
    one batch along the leading axes, as on a path."""
    rng = np.random.default_rng(20240917)
    d1, d2 = 1e-6, 1e-4
    for d in (1, 3):
        x = np.vstack([np.zeros(d), rng.uniform(-2, 2, size=(4, d))])
        shift = np.eye(d)  # x[:, None] +- h * shift: one probe per coordinate
        fx = np.asarray(spec.f(x), dtype=float)[:, None]
        up1, down1 = (np.asarray(spec.f(x[:, None] + sign * d1 * shift)) for sign in (1, -1))
        up2, down2 = (np.asarray(spec.f(x[:, None] + sign * d2 * shift)) for sign in (1, -1))
        checks = (
            ("gradient", spec.gradient(x), (up1 - down1) / (2 * d1)),
            ("laplacian", spec.laplacian(x), np.sum(up2 - 2 * fx + down2, axis=1) / d2**2),
        )
        for name, got, want in checks:
            got = np.asarray(got, dtype=float)
            if got.shape != want.shape or not np.all(
                np.abs(got - want) <= _FD_TOL * np.maximum(1.0, np.abs(want))
            ):
                raise ConfigError(
                    f"integrand {spec.label!r}: {name} disagrees with finite "
                    f"differences at d = {d}"
                )


INTEGRANDS: dict[str, IntegrandSpec] = {}


def register_integrand(spec: IntegrandSpec) -> IntegrandSpec:
    """Validate and add an integrand spec to the whitelist."""
    if spec.label in INTEGRANDS:
        raise ConfigError(f"integrand label {spec.label!r} already registered")
    _validate(spec)
    INTEGRANDS[spec.label] = spec
    return spec


def _F_linear(x):
    return np.sum(np.asarray(x, dtype=float), axis=-1)


def _F_radial(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * np.sum(x * x, axis=-1)


def _F_cubic(x):
    x = np.asarray(x, dtype=float)
    return np.sum(x**3, axis=-1) / 3.0


def _F_one(x):
    return np.ones(np.shape(x)[:-1])


def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _as_float(x):
    return np.asarray(x, dtype=float)


def _squares(x):
    x = np.asarray(x, dtype=float)
    return x * x


def _no_laplacian(x):
    return np.zeros(np.shape(x)[:-1])


def _dimension(x):
    return np.full(np.shape(x)[:-1], float(np.shape(x)[-1]))


def _F_cubic_lap(x):
    return 2.0 * _F_linear(x)


# The whitelist: polynomial potentials whose integrands u = grad F have the
# Hoelder and Malliavin-derivative regularity the limit theorems assume.  The
# paired labels (sum of x_i; |x|^2 / 2) name one potential each, so configs
# and reports keep the name they were given.
register_integrand(IntegrandSpec(_F_linear, _ones, _no_laplacian, "identity"))
register_integrand(IntegrandSpec(_F_linear, _ones, _no_laplacian, "linear_sum"))
register_integrand(IntegrandSpec(_F_radial, _as_float, _dimension, "quadratic"))
register_integrand(IntegrandSpec(_F_radial, _as_float, _dimension, "radial_quadratic"))
register_integrand(IntegrandSpec(_F_cubic, _squares, _F_cubic_lap, "cubic"))
register_integrand(IntegrandSpec(_F_one, _zeros, _no_laplacian, "constant"))

def _lookup(label: str):
    if label not in INTEGRANDS:
        raise ConfigError(f"unknown integrand {label!r}; registered: {sorted(INTEGRANDS)}")
    return INTEGRANDS[label]


def divergence_reading(hurst: float) -> str:
    """Whether H supports the plain divergence reading of the Ito formula
    (H in (1/4, 1/2)) or only the extended-domain one."""
    h = check_hurst(hurst)
    return "divergence" if 0.25 < h < 0.5 else "extended-domain"


def _on_path(fn: Callable, path: MultiPath, label: str) -> np.ndarray:
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
    spec: IntegrandSpec, path: RealPath, hurst: float
) -> RealPath:
    """The d = 1 case of :func:`divergence_via_ito_multi` on a scalar path."""
    return divergence_via_ito_multi(spec, MultiPath(path.grid, path.values[:, None]), hurst)


def divergence_via_ito_multi(
    spec: IntegrandSpec, path: MultiPath, hurst: float
) -> RealPath:
    """Pathwise X_t = int_0^t grad F(B_s) dB_s via the Ito representation.

    X_t = F(B_t) - F(0) - H int_0^t (sum_i d^2F/dx_i^2)(B_s) s^{2H-1} ds,
    exact in law for whitelisted integrands; see :func:`divergence_reading`
    for the H-range label.
    """
    h = check_hurst(hurst)
    f_vals = _on_path(spec.f, path, f"F({spec.label})")
    lap_vals = _on_path(spec.laplacian, path, f"Laplacian({spec.label})")
    return ito_representation(f_vals, h, lap_vals, path.grid, h)


def xi_mc_target(
    u_nodes: np.ndarray,
    dt: float,
    p: float,
    stream: np.random.Generator,
    draws: int,
) -> tuple[float, float]:
    """nu-integral target int_{R^d} [sum_i |<u_i, xi>|^p dt] N(0,I)(dxi).

    Monte Carlo over ``draws`` standard-normal xi arranged as antithetic
    pairs; the integrand is even in xi, so each pair contributes its base
    value and only draws/2 evaluations are needed.  The radius is integrated
    out exactly (conditional Monte Carlo on the spherical-radial split
    xi = |xi| theta, with |xi| ~ chi_d independent of theta): each pair
    evaluates c_p sum_i |<u_i, theta>|^p dt, c_p = E|xi|^p.  At d = 1,
    theta = +-1 and every pair carries the same value.  Returns (estimate,
    standard error across pairs).
    """
    if draws < 4 or draws % 2:  # the bound of report.check_shape
        raise ConfigError(f"xi_draws must be an even count >= 4, got {draws}")
    pairs = draws // 2
    nodes, d = u_nodes.shape
    # E|xi|^p = 2^{p/2} Gamma((d + p)/2) / Gamma(d/2) for xi ~ N(0, I_d)
    c_p = math.exp(0.5 * p * math.log(2.0) + math.lgamma(0.5 * (d + p)) - math.lgamma(0.5 * d))
    values = np.empty(pairs)
    # The draw blocks fix which normal lands in which xi, so they are part of
    # the report bytes; each is evaluated in _XI_BLOCK-column passes in place.
    # A lone last column joins the pass before it: numpy takes one column
    # through a matrix-vector product and a pairwise sum, with other last bits.
    chunk = max(1, min(pairs, int(4e6) // max(nodes, 1)))
    work = np.empty(nodes * min(chunk, _XI_BLOCK + 1))
    done = 0
    with np.errstate(over="ignore"):  # caught below as a non-finite value
        while done < pairs:
            take = min(chunk, pairs - done)
            xi = stream.standard_normal((d, take))
            xi /= np.linalg.norm(xi, axis=0)  # theta; exactly +-1 at d = 1
            a = 0
            while a < take:
                b = take if take - a <= _XI_BLOCK + 1 else a + _XI_BLOCK
                proj = work[: nodes * (b - a)].reshape(nodes, b - a)
                np.matmul(u_nodes, xi[:, a:b], out=proj)
                np.abs(proj, out=proj)
                np.power(proj, p, out=proj)
                values[done + a : done + b] = proj.sum(axis=0) * (c_p * dt)
                a = b
            done += take
    if not np.all(np.isfinite(values)):
        raise NumericalError(
            "the xi target of the path is non-finite: |<u, xi>|^p overflows or u is not finite"
        )
    # mean and std are taken after scaling by a power of two, as in
    # report.scaled_mean and report.root_sum_squares: neither the sum nor
    # the squared deviations overflow or underflow
    e = np.frexp(values.max())[1]
    scaled = np.ldexp(values, -e)
    mean = float(np.ldexp(scaled.mean(), e))
    se = float(np.ldexp(scaled.std(ddof=1), e) / np.sqrt(pairs))
    return mean, se


def _cross_check(per_rep, n: int, dimension: int) -> tuple[float, float]:
    """Compare closed-form and xi-MC targets over the replications.

    Per path the two targets differ only by xi-MC noise, so their means must
    agree within 3 combined standard errors; a violation means the two
    target routes are internally inconsistent and aborts the experiment.
    At d = 1 the xi target has no noise (theta = +-1), so the two must agree
    to rounding: a relative 1e-12.
    """
    m = len(per_rep)
    mean_a = scaled_mean([ta for _, ta, _, _, _ in per_rep])
    mean_b = scaled_mean([tb for _, _, _, tb, _ in per_rep])
    se_b = root_sum_squares([se for *_, se in per_rep]) / m
    if dimension == 1:
        agree, bound = math.isclose(mean_a, mean_b, rel_tol=1e-12), "relative 1e-12"
        agree = agree and math.isfinite(se_b)
    else:
        agree, bound = abs(mean_a - mean_b) <= 3 * se_b, f"3 s.e. = {3 * se_b:.2e}"
    if not agree:  # a NaN anywhere aborts too
        raise NumericalError(
            f"closed-form and xi-Monte-Carlo targets disagree at n={n}: "
            f"{mean_a:.6f} vs {mean_b:.6f} ({bound})"
        )
    return mean_b, se_b


_DUAL_TARGET_COLUMNS = CONVERGENCE_COLUMNS + ("target_mc", "target_mc_se")

# fBm is the divergence integral of the identity potential (u = 1).  fBm and
# Theta (u = B/R) have unit-norm integrands, so their limit is e_H * T in
# closed form; the d-dim cases also estimate the limit by xi Monte Carlo on
# every replication.
_UNIT_TARGET = ("fbm-variation", "theta-variation")
_XI_TARGET = ("divergence-variation-multi", "theta-variation")


class _VariationJob(NamedTuple):
    """One grid size of a variation experiment, as shipped to the workers."""

    paths: PathJob
    experiment: str
    integrand: str | None
    xi_draws: int | None


def _variation_rep(job: _VariationJob, r: int) -> tuple[float, ...]:
    """One replication: (V_n^{1/H}(X), target, |V - target|, xi target, xi s.e.).

    The xi pair is NaN in the experiments without an xi target.
    """
    h, p = job.paths.hurst, 1.0 / job.paths.hurst
    path = job.paths.sample(r)
    grid = path.grid
    if job.experiment == "theta-variation":
        x = theta_path(path, h)
        u = path.values[1:] / np.linalg.norm(path.values[1:], axis=1)[:, None]
    else:
        spec = INTEGRANDS[job.integrand]
        x = divergence_via_ito_multi(spec, path, h)
        u = np.asarray(spec.gradient(path.values), dtype=float)[1:]
    v = variation_Vnq(x, p)
    if job.experiment in _UNIT_TARGET:
        target = e_H(h) * job.paths.horizon
    else:
        target = e_H(h) * math.fsum(np.linalg.norm(u, axis=1) ** p) * grid.dt
        if target == 0.0 and np.any(u):
            raise NumericalError(
                f"the variation target of integrand {job.integrand!r} underflows to 0 "
                "although the integrand does not vanish on the path"
            )
    xi = (np.nan, np.nan)
    if job.experiment in _XI_TARGET:
        stream = job.paths.seed.replicate(r).stream(lane=LANE_XI)
        xi = xi_mc_target(u, grid.dt, p, stream, job.xi_draws)
    return (v, target, abs(v - target), *xi)


def variation_experiment(config: ExperimentConfig, workers: int) -> ConvergenceReport:
    """L^1 convergence of V_n^{1/H}(X) to e_H int_0^T ||u_s||^{1/H} ds.

    ``config.experiment`` selects X: fBm itself (``fbm-variation``), the
    divergence integral of a registered ``integrand`` in one or ``dimension``
    dimensions (``divergence-variation``, ``divergence-variation-multi``), or
    Theta under the gate 2dH^2 > 1 (``theta-variation``).  Per-path targets are
    right-endpoint Riemann sums of ||u||^{1/H}; unit-norm integrands use the
    closed form e_H * T.  The d-dim cases cross-check the target against
    Monte Carlo over xi on every replication (the closed form holds because
    <u, xi> is N(0, ||u||^2) under the Gaussian xi-measure), and disagreement
    beyond 3 standard errors (at d = 1, beyond rounding) aborts.
    """
    experiment, h, dimension = config.experiment, config.hurst, config.dimension
    horizon, replications = config.horizon, config.replications
    seed = SeedSpec(config.master_seed)
    method = config.param("method")
    meta = {
        "experiment": experiment,
        "hurst": h,
        "horizon": horizon,
        "replications": replications,
        "master_seed": config.master_seed,
    }
    integrand = None
    if experiment == "fbm-variation":
        integrand = "identity"
        meta["method"] = method
    elif experiment == "theta-variation":
        require_variation_gate(dimension, h)
        require_bessel_dimension(dimension)
    else:
        integrand = _lookup(config.param("integrand")).label
        meta.update(integrand=integrand, reading=divergence_reading(h))
    dual = experiment in _XI_TARGET
    xi_draws = config.param("xi_draws") if dual else None
    if dual:
        meta.update(dimension=dimension, xi_draws=xi_draws)
    rows = []
    for n in config.grid_sizes:
        job = _VariationJob(
            PathJob(h, dimension, horizon, n, seed, method), experiment, integrand, xi_draws
        )
        per_rep = replication_map(functools.partial(_variation_rep, job), replications, workers)
        target_mc = _cross_check(per_rep, n, dimension) if dual else ()
        est, _ = aggregate([v for v, *_ in per_rep])
        if experiment in _UNIT_TARGET:
            target = horizon * e_H(h)
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
    flags["rel_err_final_ok"] = rows[-1][4] < config.param("rel_err_final", "tolerances")
    columns = _DUAL_TARGET_COLUMNS if dual else CONVERGENCE_COLUMNS
    return ConvergenceReport(columns=columns, rows=rows, flags=flags, meta=meta)


def _strictly_decreasing(values: list[float]) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def default_interval_pairs(horizon: float) -> list[tuple[float, float]]:
    """Nested intervals [T/4, T/4 + w] with w = T/16 .. T/256."""
    a = horizon / 4
    return [(a, a + horizon / k) for k in (16, 32, 64, 128, 256)]


def _lp_rep(paths: PathJob, label: str, index_pairs: tuple, r: int) -> list[float]:
    x = divergence_via_ito_multi(INTEGRANDS[label], paths.sample(r), paths.hurst)
    p = 1.0 / paths.hurst
    return [float(np.abs(x.values[ib] - x.values[ia]) ** p) for ia, ib in index_pairs]


def lp_scaling_experiment(config: ExperimentConfig, workers: int) -> Report:
    """Scaling-exponent check of E|X_b - X_a|^{1/H} against (b - a).

    Fits a log-log regression over nested intervals away from the origin
    (a >= T/4); the dominant moment bound scales like (b-a)^{pH} with
    p = 1/H, i.e. unit slope.  Only the exponent is testable: the bound's
    constant is not explicit, so the fitted intercept is reported, not
    asserted.
    """
    h, horizon, replications = config.hurst, config.horizon, config.replications
    spec = _lookup(config.param("integrand"))
    grid_size = config.param("grid_size")
    interval_pairs = config.param("intervals")
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

    paths = PathJob(h, 1, horizon, grid_size, SeedSpec(config.master_seed), config.param("method"))
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
        "hurst": h,
        "horizon": horizon,
        "grid_size": grid_size,
        "replications": replications,
        "master_seed": config.master_seed,
        "reading": divergence_reading(h),
    }
    extra = {"slope": slope, "intercept": intercept, "r_squared": r2, "slope_target": 1.0}
    flags = {"slope_ok": abs(slope - 1.0) <= config.param("slope_tol", "tolerances")}
    return Report(
        columns=("width", "estimate", "stderr"), rows=rows, extra=extra, flags=flags, meta=meta
    )
