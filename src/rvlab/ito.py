"""Divergence integrals via Ito representations and the one engine behind
the 1/H-variation experiments.

Divergence (Skorohod) integrals are never discretized directly: for a
potential F on R^d the process X_t = int_0^t grad F(B_s) dB_s is evaluated
pathwise through the change-of-variable formula

    X_t = F(B_t) - F(0) - H int_0^t (Laplacian F)(B_s) s^{2H-1} ds,

(:func:`rvlab.core.ito_representation`, shared with Theta) with the singular
time weight integrated exactly cell by cell against right-endpoint samples;
d = 1 is the scalar case X_t = int_0^t F'(B_s) dB_s.  Every statistic reads
its paths from :meth:`rvlab.fbm.PathJob.map`.  The admissible integrands form
a fixed whitelist, the literal table :data:`INTEGRANDS`; the
Hoelder-regularity hypotheses behind the limit theorems are analytic facts
about those integrands, not runtime checks.

Each variation experiment is a pair: a process X = int u dB and its
integrand u.  Its runner (:func:`fbm_variation`, :func:`divergence_variation`,
:func:`theta_variation`) declares X as a ``transform(path, H)``, u at the
nodes (or none, for the unit-norm closed form e_H * T) and whether the limit's
nu-integral form int sum_i |<u_i, xi>|^{1/H} dt N(0, I)(dxi) is checked, once
per config: Monte Carlo over xi on one path (:func:`xi_mc_target`) against
its closed form e_H sum_i |u_i|^{1/H} dt, as the first task of the
replication pool.  One engine runs them all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import (
    LANE_XI,
    MultiPath,
    SeedSpec,
    UniformGrid,
    check_hurst,
    ito_representation,
)
from .bessel import require_bessel_dimension, require_variation_gate, theta_path
from .errors import ConfigError, DegenerateInputError, NumericalError
from .fbm import PathJob
from .report import (
    CONVERGENCE_COLUMNS,
    ConvergenceReport,
    Report,
    aggregate,
    check_xi_draws,
    loglog_fit,
)
from .variation import chi_moment, e_H, variation_Vnq

if TYPE_CHECKING:
    from .harness import ExperimentConfig

__all__ = [
    "IntegrandSpec",
    "INTEGRANDS",
    "divergence_reading",
    "divergence_via_ito",
    "divergence_via_ito_multi",
    "fbm_variation",
    "divergence_variation",
    "theta_variation",
    "lp_scaling_experiment",
    "DEFAULT_XI_DRAWS",
]

# nu-integral Monte Carlo of the one check per config: 1024 draws as 512
# antithetic pairs, each drawing its own direction at every node.  Fewer
# draws lose power: at 512, directions uniform on the cube rather than on
# the sphere pass the check on criterion 05's path.
DEFAULT_XI_DRAWS = 1024
# normals per draw block, which holds whole pairs (at least one): 0.5 MB, and
# its two pairs x nodes work arrays 2/d times that
_XI_BLOCK_NORMALS = 2**16


@dataclass(frozen=True)
class IntegrandSpec:
    """Potential F on R^d with gradient and Laplacian (sum of second
    partials), each acting on the last axis; d = 1 is the scalar case, with
    integrand u = F'.  The whitelist's specs hold module-level functions,
    which pool workers pickle; the test suite checks their derivatives by
    finite differences."""

    f: Callable
    gradient: Callable
    laplacian: Callable
    label: str


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
INTEGRANDS: dict[str, IntegrandSpec] = {
    spec.label: spec
    for spec in (
        IntegrandSpec(_F_linear, _ones, _no_laplacian, "identity"),
        IntegrandSpec(_F_linear, _ones, _no_laplacian, "linear_sum"),
        IntegrandSpec(_F_radial, _as_float, _dimension, "quadratic"),
        IntegrandSpec(_F_radial, _as_float, _dimension, "radial_quadratic"),
        IntegrandSpec(_F_cubic, _squares, _F_cubic_lap, "cubic"),
        IntegrandSpec(_F_one, _zeros, _no_laplacian, "constant"),
    )
}


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
    spec: IntegrandSpec, grid: UniformGrid, values: np.ndarray, hurst: float
) -> np.ndarray:
    """The d = 1 case of :func:`divergence_via_ito_multi` on the node values
    of a scalar fBm."""
    return divergence_via_ito_multi(spec, MultiPath(grid, values[:, None]), hurst)


def divergence_via_ito_multi(
    spec: IntegrandSpec, path: MultiPath, hurst: float
) -> np.ndarray:
    """Pathwise X_t = int_0^t grad F(B_s) dB_s via the Ito representation,
    at every node of the path.

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
    value and only draws/2 evaluations are needed.  Within a pair every node
    i draws its own xi_i, so the n terms are independent given the path and
    their variances add.  The radius is integrated out exactly (conditional
    Monte Carlo on the spherical-radial split xi = |xi| theta, with
    |xi| ~ chi_d independent of theta): each pair evaluates
    c_p sum_i |<u_i, theta_i>|^p dt, c_p = E|xi|^p.  At d = 1, theta = +-1
    and every pair carries the same value.  Returns (estimate, standard
    error across pairs).
    """
    check_xi_draws(draws)
    pairs = draws // 2
    nodes, d = u_nodes.shape
    c_p = chi_moment(d, p)
    # c_p * dt = weight * 2^k, the 2^k applied only to the mean and s.e.: a
    # pair value may pass the largest double although the target does not
    m_c, k_c = math.frexp(c_p)
    m_dt, k_dt = math.frexp(dt)
    weight, k = m_c * m_dt, k_c + k_dt
    values = np.empty(pairs)
    # Pair j takes the d x nodes normals after those of pairs 0 .. j-1, and
    # is summed alone along its contiguous node axis, so the block size
    # changes no bit of the result.
    rows = max(1, min(pairs, _XI_BLOCK_NORMALS // max(d * nodes, 1)))
    block = np.empty((rows, d, nodes))
    work = np.empty((2, rows, nodes))
    u = np.ascontiguousarray(u_nodes.T, dtype=float)
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):  # caught below as non-finite
        while done < pairs:
            take = min(rows, pairs - done)
            xi, acc, tmp = block[:take], work[0, :take], work[1, :take]
            stream.standard_normal(out=xi)
            np.multiply(xi[:, 0], xi[:, 0], out=acc)
            for c in range(1, d):
                acc += np.multiply(xi[:, c], xi[:, c], out=tmp)
            np.sqrt(acc, out=acc)
            xi /= acc[:, None]  # theta; exactly +-1 at d = 1
            np.multiply(xi[:, 0], u[0], out=acc)
            for c in range(1, d):
                acc += np.multiply(xi[:, c], u[c], out=tmp)
            np.abs(acc, out=acc)
            np.power(acc, p, out=acc)
            values[done : done + take] = acc.sum(axis=1) * weight
            done += take
    if not np.all(np.isfinite(values)):
        raise NumericalError(
            "the xi target of the path is non-finite: |<u, xi>|^p overflows or u is not finite"
        )
    # mean and std are taken after scaling by a power of two, as in
    # report.aggregate: neither the sum nor the squared deviations overflow
    # or underflow
    e = np.frexp(values.max())[1]
    scaled = np.ldexp(values, -e)
    with np.errstate(over="ignore"):  # caught below as non-finite
        mean = float(np.ldexp(scaled.mean(), e + k))
        se = float(np.ldexp(scaled.std(ddof=1), e + k) / np.sqrt(pairs))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NumericalError(f"the xi target overflows a double: mean {mean}, s.e. {se}")
    return mean, se


def _cross_check(closed: float, estimate: float, se: float, n: int, dimension: int) -> dict:
    """The nu-integral check as entries of a report's ``extra``.

    Given the path the xi target's mean is the closed form, so the two must
    agree within 3 standard errors, and at d = 1, where theta = +-1 leaves
    the xi target no noise, to a relative 1e-12.  The margin is that bound
    less their distance: at d >= 2 a negative one fails the report's flag,
    at d = 1 it aborts, as a margin or s.e. that is not finite does at any d.
    """
    bound = 1e-12 * max(abs(closed), abs(estimate)) if dimension == 1 else 3 * se
    margin = bound - abs(estimate - closed)
    if not (math.isfinite(margin) and math.isfinite(se)) or (dimension == 1 and margin < 0):
        label = "relative 1e-12" if dimension == 1 else f"3 s.e. = {bound:.2e}"
        raise NumericalError(
            f"closed-form and xi-Monte-Carlo targets disagree at n={n}: "
            f"{closed:.6f} vs {estimate:.6f} ({label})"
        )
    return {"xi_check_n": n, "xi_check_closed_form": closed, "xi_check_estimate": estimate,
            "xi_check_se": se, "xi_check_margin": margin}


def _gradient_nodes(spec: IntegrandSpec, path: MultiPath) -> np.ndarray:
    """u = grad F(B) at nodes 1 .. n of the path."""
    return np.asarray(spec.gradient(path.values), dtype=float)[1:]


def _directions(path: MultiPath) -> np.ndarray:
    """Theta's integrand u = B/R at nodes 1 .. n of the path."""
    return path.values[1:] / np.linalg.norm(path.values[1:], axis=1)[:, None]


def _path_target(u: np.ndarray, h: float, dt: float) -> float:
    """The closed-form limit e_H sum_i |u_i|^{1/H} dt on one path."""
    return e_H(h) * math.fsum(np.linalg.norm(u, axis=1) ** (1.0 / h)) * dt


def _variation_rep(
    h: float, transform: Callable, u_of: Callable | None, label: str | None, path: MultiPath
) -> tuple[float, float, float]:
    """(V_n^{1/H}(X), target, |V - target|) on one path, X = transform(path, H)."""
    v = variation_Vnq(transform(path, h), 1.0 / h)
    if u_of is None:
        target = e_H(h) * path.grid.horizon
    else:
        u = u_of(path)
        target = _path_target(u, h, path.grid.dt)
        if target == 0.0 and np.any(u):
            raise NumericalError(
                f"the variation target of integrand {label!r} underflows to 0 "
                "although the integrand does not vanish on the path"
            )
    return v, target, abs(v - target)


def _nu_check(paths: PathJob, u_of: Callable, xi_draws: int) -> dict:
    """The nu-integral form of the limit against its closed form, once per
    config: on the u of replication 0's path, with ``xi_draws`` draws from
    that replication's xi lane.  Both targets read the same u, so the check
    tests the xi target and c_p, not the sampler, the transforms or V_n."""
    path = paths.sample(0)
    u, h, dt = u_of(path), paths.hurst, path.grid.dt
    stream = paths.seed.replicate(0).stream(lane=LANE_XI)
    estimate, se = xi_mc_target(u, dt, 1.0 / h, stream, xi_draws)
    return _cross_check(_path_target(u, h, dt), estimate, se, paths.n, paths.dimension)


def _variation(
    config: ExperimentConfig, workers: int, transform: Callable, meta: dict,
    u_of: Callable | None = None, xi_u: Callable | None = None,
) -> ConvergenceReport:
    """L^1 convergence of V_n^{1/H}(X) to e_H int_0^T ||u_s||^{1/H} ds, for
    X = ``transform(path, H)`` with integrand u.

    ``u_of(path)`` gives u at nodes 1 .. n, and the per-path target is the
    right-endpoint Riemann sum of ||u||^{1/H}; without it ||u|| = 1 and the
    target is the closed form e_H * T.  With ``xi_u``, the u it gives is
    checked once, on one path at the finest n, against Monte Carlo over xi
    (:func:`_nu_check`; the two agree because <u, xi> is N(0, ||u||^2) under
    the Gaussian xi-measure); the check goes in ``extra``, a disagreement
    beyond 3 standard errors fails ``targets_agree_3se``, and one beyond
    rounding at d = 1 aborts.  It is the
    head of the first grid size's map, so at workers > 1 one pool process
    runs it beside the replications, and its error, if any, comes first.
    ``meta`` holds the runner's own report keys; its ``integrand`` names u
    in errors.
    """
    h, horizon, replications = config.hurst, config.horizon, config.replications
    seed = SeedSpec(config.master_seed)
    label = meta.get("integrand")
    meta = {"horizon": horizon, **meta}
    extra, head = {}, None
    if xi_u is not None:
        meta["xi_draws"] = xi_draws = config.param("xi_draws")
        finest = PathJob(h, config.dimension, horizon, config.grid_sizes[-1], seed)
        head = functools.partial(_nu_check, finest, xi_u, xi_draws)
    rep = functools.partial(_variation_rep, h, transform, u_of, label)
    rows = []
    for n in config.grid_sizes:
        paths = PathJob(h, config.dimension, horizon, n, seed)
        results = paths.map(rep, replications, workers, head)
        if head is not None:
            extra, *results = results
            head = None
        values, targets, deviations = zip(*results)
        est, _ = aggregate(values)
        if u_of is None:
            target = horizon * e_H(h)
        else:
            target, _ = aggregate(targets)
            if target == 0.0:
                raise DegenerateInputError(
                    f"integrand {label!r} has an identically zero variation target"
                )
        abs_err, stderr = aggregate(deviations)
        rows.append((n, est, target, abs_err, abs_err / abs(target), stderr))
    rel_err = [row[4] for row in rows]
    flags = {"monotone_decreasing": all(b < a for a, b in zip(rel_err, rel_err[1:]))}
    if extra:
        flags["targets_agree_3se"] = extra["xi_check_margin"] >= 0
    flags["rel_err_final_ok"] = rel_err[-1] < config.param("rel_err_final", "tolerances")
    return ConvergenceReport(
        columns=CONVERGENCE_COLUMNS, rows=rows, extra=extra, flags=flags, meta=meta
    )


# The runners build their transforms when called, from this module's names,
# so that a function rebound here (as a profiler does) is the one that runs.


def fbm_variation(config: ExperimentConfig, workers: int) -> ConvergenceReport:
    """fBm is the divergence integral of the identity potential (u = 1): its
    1/H-variation against e_H * T."""
    transform = functools.partial(divergence_via_ito_multi, INTEGRANDS["identity"])
    return _variation(config, workers, transform, {"method": PathJob._field_defaults["method"]})


def divergence_variation(
    config: ExperimentConfig, workers: int, nu: bool = False
) -> ConvergenceReport:
    """The divergence integral of the registered ``integrand``, in one or
    ``dimension`` dimensions, against its per-path target; with ``nu`` the
    target's nu-integral form is checked too."""
    spec = _lookup(config.param("integrand"))
    u_of = functools.partial(_gradient_nodes, spec)
    transform = functools.partial(divergence_via_ito_multi, spec)
    meta = {"integrand": spec.label, "reading": divergence_reading(config.hurst)}
    return _variation(config, workers, transform, meta, u_of, u_of if nu else None)


def theta_variation(config: ExperimentConfig, workers: int) -> ConvergenceReport:
    """Theta (u = B/R, unit norm) under the gate 2dH^2 > 1, against e_H * T,
    with the nu-integral check on u."""
    require_variation_gate(config.dimension, config.hurst)
    require_bessel_dimension(config.dimension)
    return _variation(config, workers, theta_path, {}, xi_u=_directions)


def default_interval_pairs(horizon: float) -> list[tuple[float, float]]:
    """Nested intervals [T/4, T/4 + w] with w = T/16 .. T/256."""
    a = horizon / 4
    return [(a, a + horizon / k) for k in (16, 32, 64, 128, 256)]


def _lp_rep(h: float, label: str, index_pairs: tuple, path: MultiPath) -> list[float]:
    """|X_b - X_a|^{1/H} on each interval; NumericalError where the power
    passes the largest double or underflows to 0 although X_b != X_a."""
    x = divergence_via_ito_multi(INTEGRANDS[label], path, h)
    moments = []
    for ia, ib in index_pairs:
        increment = np.abs(x[ib] - x[ia])
        with np.errstate(over="ignore", under="ignore"):  # caught below
            moment = float(increment ** (1.0 / h))
        if not math.isfinite(moment) or (moment == 0.0 and increment > 0):
            raise NumericalError(
                f"|X_b - X_a|^(1/H) = {moment} at H = {h!r} on [{path.grid.node(ia)}, "
                f"{path.grid.node(ib)}], where |X_b - X_a| = {float(increment)}: "
                "the power over- or underflows a double"
            )
        moments.append(moment)
    return moments


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
    grid = UniformGrid(horizon, grid_size)
    if grid_size % 256:
        raise ConfigError(
            f"lp-scaling needs grid_size a multiple of 256, so that the interval ends "
            f"T/4 + T/k (k = 16 .. 256) are grid nodes; got {grid_size}"
        )
    interval_pairs = default_interval_pairs(horizon)
    widths = [b - a for a, b in interval_pairs]
    index_pairs = [(grid.index_of(a), grid.index_of(b)) for a, b in interval_pairs]
    paths = PathJob(h, 1, horizon, grid_size, SeedSpec(config.master_seed))
    rep = functools.partial(_lp_rep, h, spec.label, tuple(index_pairs))
    columns = zip(*paths.map(rep, replications, workers))
    rows = [(width, *aggregate(column)) for width, column in zip(widths, columns)]
    means = [mean for _, mean, _ in rows]
    if any(m <= 0 for m in means):
        raise DegenerateInputError(
            "all sampled moments vanish for some interval; the integrand is "
            "degenerate (constant potential?)"
        )
    slope, intercept, r2 = loglog_fit(widths, means)
    meta = {
        "integrand": spec.label,
        "horizon": horizon,
        "grid_size": grid_size,
        "reading": divergence_reading(h),
    }
    extra = {"slope": slope, "intercept": intercept, "r_squared": r2, "slope_target": 1.0}
    flags = {"slope_ok": abs(slope - 1.0) <= config.param("slope_tol", "tolerances")}
    return Report(
        columns=("width", "estimate", "stderr"), rows=rows, extra=extra, flags=flags, meta=meta
    )
