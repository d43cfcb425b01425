"""Fractional Bessel process R_t = ||B_t||, the divergence part Theta, its
d >= 2 and 2dH^2 > 1 gates (its variation limit is run by
:func:`rvlab.ito.theta_variation`), the constant K_q and the
negative-moment / self-similarity experiments.

Theta is evaluated pathwise through the representation

    Theta_t = R_t - H (d - 1) int_0^t s^{2H-1} / R_s ds,

the Ito-type formula of :func:`rvlab.core.ito_representation` with F = ||x||,
never through an abstract divergence operator.  The drift integrand 1/R_s
is sampled at cell right endpoints (R_0 = 0 makes the left endpoint
undefined; the true integrand behaves like s^{H-1}, which is integrable, so
the first-cell bias vanishes under refinement).

K_q is the Gaussian moment :func:`rvlab.variation.chi_moment` at p = -q.
Self-similarity is checked as the exact pathwise identity it is under one
seed, not as a test between samples of two laws.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    MultiPath,
    SeedSpec,
    UniformGrid,
    check_hurst,
    ito_representation,
)
from .errors import ConfigError, DomainError, GateError, NumericalError
from .fbm import PathJob
from .report import Report, aggregate, loglog_fit
from .variation import chi_moment

if TYPE_CHECKING:
    from .harness import ExperimentConfig

__all__ = [
    "k_q",
    "theta_path",
    "require_bessel_dimension",
    "require_variation_gate",
    "negative_moment_experiment",
    "self_similarity_suite",
]


def k_q(d: int, q: float) -> float:
    """K_q = E||Z||^{-q} for Z ~ N(0, I_d), defined only for 0 < q < d."""
    if not 0 < q < d:
        raise GateError(f"negative moment requires 0 < q < d, got q={q}, d={d}")
    return chi_moment(d, -q)


def require_bessel_dimension(d: int) -> None:
    """The Bessel process R = ||B|| is studied only for d >= 2."""
    if d < 2:
        raise GateError(f"the Bessel process needs d >= 2, got d={d}")


def theta_path(path: MultiPath, hurst: float) -> np.ndarray:
    """Theta_t = R_t - H (d-1) int_0^t s^{2H-1} / R_s ds at every node of a
    d >= 2 path, with R_t = ||B_t|| its nodewise Euclidean norm.

    Requires R_{t_i} > 0 for i >= 1 (an almost-sure event; a zero signals a
    corrupted sampler, not randomness).
    """
    h = check_hurst(hurst)
    d = path.dimension
    if d < 2:
        raise DomainError(f"the Bessel process needs d >= 2, got d={d}")
    r = np.linalg.norm(path.values, axis=1)
    interior = r[1:]
    if np.any(interior == 0.0):
        i = 1 + int(np.flatnonzero(interior == 0.0)[0])
        raise NumericalError(
            f"degenerate Bessel path: R = 0 at node {i} (probability zero; "
            "the sampler is corrupted)"
        )
    inv_r = np.concatenate([[0.0], 1.0 / interior])  # node 0 never used
    # (d - 1) stays in the scalar weight: folding it into 1/R changes bits
    return ito_representation(r, h * (d - 1), inv_r, path.grid, h)


def require_variation_gate(d: int, hurst: float) -> None:
    """The Theta variation limit is only claimed under 2 d H^2 > 1."""
    h = check_hurst(hurst)
    if not 2 * d * h * h > 1:
        raise GateError(
            f"Theta variation requires 2dH^2 > 1; got 2*{d}*{h}^2 = {2 * d * h * h:.4g} <= 1"
        )


def _moment_grid(t_list: list[float], max_n: int = 4096) -> tuple[UniformGrid, tuple]:
    """Smallest uniform grid whose nodes contain every requested time, and
    the indices of those nodes."""
    horizon = max(t_list)
    for n in range(1, max_n + 1):
        grid = UniformGrid(horizon, n)
        try:
            return grid, tuple(grid.index_of(t) for t in t_list)
        except DomainError:
            continue
    raise ConfigError(f"t_list {t_list} does not fit a uniform grid with n <= {max_n}")


def _moment_rep(q: float, indices: tuple, path: MultiPath) -> list[float]:
    radii = np.linalg.norm(path.values, axis=1)[list(indices)]
    if np.any(radii == 0.0):
        raise NumericalError("degenerate Bessel path: R = 0 at a requested time")
    return [float(rad ** (-q)) for rad in radii]


def negative_moment_experiment(config: ExperimentConfig, workers: int) -> Report:
    """Monte Carlo check of E(R_t^{-q}) = K_q t^{-Hq} for q < d.

    Reports per-t estimates against the closed-form target plus a log-log
    regression whose slope is compared to -Hq and intercept to log K_q.
    """
    d, h, replications = config.dimension, config.hurst, config.replications
    q, t_list = config.param("q"), config.param("t_list")
    constant = k_q(d, q)  # gates 0 < q < d
    require_bessel_dimension(d)
    if len(t_list) < 2:
        raise ConfigError("need at least two times for the scaling regression")
    if sorted(set(t_list)) != list(t_list) or min(t_list) <= 0:
        raise ConfigError("t_list must be positive and strictly increasing")
    grid, indices = _moment_grid(t_list)
    try:
        targets = [constant * t ** (-h * q) for t in t_list]
    except OverflowError:
        targets = [math.inf]
    if not all(0 < target < math.inf for target in targets):
        raise NumericalError(f"a target K_q t^(-Hq) over t_list {t_list} is not a positive "
                             "finite double")
    paths = PathJob(h, d, grid.horizon, grid.n, SeedSpec(config.master_seed))
    columns = zip(*paths.map(functools.partial(_moment_rep, q, indices), replications, workers))
    rows = []
    for t, target, column in zip(t_list, targets, columns):
        est, stderr = aggregate(column)
        abs_err = abs(est - target)
        rows.append((t, est, target, abs_err, abs_err / target, stderr))
    slope, intercept, r2 = loglog_fit(t_list, [row[1] for row in rows])
    extra = {
        "slope": slope,
        "slope_target": -h * q,
        "intercept": intercept,
        "intercept_target": float(np.log(constant)),
        "r_squared": r2,
        "k_q": constant,
    }
    flags = {}
    for key in ("slope", "intercept"):
        gap = abs(extra[key] - extra[f"{key}_target"])
        flags[f"{key}_ok"] = gap <= config.param(f"{key}_tol", "tolerances")
    return Report(
        columns=("t", "estimate", "target", "abs_err", "rel_err", "stderr"),
        rows=rows,
        extra=extra,
        flags=flags,
        meta={"q": q, "grid_n": grid.n},
    )


def self_similarity_suite(config: ExperimentConfig, workers: int) -> Report:
    """Pathwise check of a^{-H} Theta_{at} = Theta_t for every a in ``a_list``
    on [0, ``t``], with a power control.

    Theta is H-self-similar because B is, and the circulant sampler makes
    that exact pathwise: from one seed, the path on [0, a t] is a^H times the
    path on [0, t], up to rounding.  Each arm maps the replications of the
    master seed on its horizon; a row reports the largest, over
    replications, of sup_i |a^{-H} Theta_{at}(t_i) - Theta_t(t_i)| /
    sup_i |Theta_t(t_i)| against ``max_rel_dev``.  The control rescales the
    largest a's arm by a^{-2H} instead and must exceed the tolerance.
    """
    d, h, replications = config.dimension, config.hurst, config.replications
    a_list, t, grid_size = config.param("a_list"), config.param("t"), config.param("grid_size")
    tolerance = config.param("max_rel_dev", "tolerances")
    require_bessel_dimension(d)
    for a in a_list:  # every scaled grid before the first arm runs
        if not a > 0:
            raise DomainError(f"scale factor a must be positive, got {a}")
        if not 0 < a * t < math.inf:
            raise DomainError(f"the scaled time a * t must be positive and finite, got {a} * {t}")
        UniformGrid(a * t, grid_size)
    top = max(a_list)
    try:
        wrong = top ** (-2 * h)
    except OverflowError:
        raise DomainError(f"the control scaling a^-2H at a = {top} passes the largest double")
    if top**-h == wrong:
        raise ConfigError(f"the control at a = {top} is never rejected: a^-H = a^-2H at H = {h}")

    def arm(horizon: float) -> np.ndarray:
        paths = PathJob(h, d, horizon, grid_size, SeedSpec(config.master_seed))
        return np.array(paths.map(functools.partial(theta_path, hurst=h), replications, workers))

    base = arm(t)
    sup = np.max(np.abs(base), axis=1)

    def row(a: float, scaling: str, factor: float, scaled: np.ndarray) -> tuple:
        dev = float(np.max(np.max(np.abs(factor * scaled - base), axis=1) / sup))
        ok = dev > tolerance if scaling == "a^-2H" else dev <= tolerance
        return (a, t, scaling, replications, dev, tolerance, ok)

    rows, control = [], None
    for a in a_list:
        scaled = arm(a * t)
        rows.append(row(a, "a^-H", a**-h, scaled))
        if control is None and a == top:
            control = row(a, "a^-2H", wrong, scaled)
    return Report(
        columns=("a", "t", "scaling", "m", "max_rel_dev", "tolerance", "ok"),
        rows=[*rows, control],
        flags={"scale_covariant": all(r[-1] for r in rows), "control_rejected": control[-1]},
        meta={"grid_size": grid_size},
    )
