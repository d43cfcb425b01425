"""Fractional Bessel process R_t = ||B_t||, the divergence part Theta, its
d >= 2 and 2dH^2 > 1 gates (its variation limit is run by
:func:`rvlab.ito.variation_experiment`), the constant K_q and the
negative-moment / self-similarity experiments.

Theta is evaluated pathwise through the representation

    Theta_t = R_t - H (d - 1) int_0^t s^{2H-1} / R_s ds,

the Ito-type formula of :func:`rvlab.core.ito_representation` with F = ||x||,
never through an abstract divergence operator.  The drift integrand 1/R_s
is sampled at cell right endpoints (R_0 = 0 makes the left endpoint
undefined; the true integrand behaves like s^{H-1}, which is integrable, so
the first-cell bias vanishes under refinement).
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import gammaln

from .core import (
    MultiPath,
    RealPath,
    SeedSpec,
    UniformGrid,
    check_hurst,
    ito_representation,
)
from .errors import ConfigError, DomainError, GateError, NumericalError
from .fbm import PathJob
from .parallel import replication_map
from .report import Report, aggregate, loglog_fit

if TYPE_CHECKING:
    from .harness import ExperimentConfig

__all__ = [
    "k_q",
    "bessel_from_multipath",
    "theta_path",
    "require_bessel_dimension",
    "require_variation_gate",
    "negative_moment_experiment",
    "self_similarity_suite",
]


def k_q(d: int, q: float) -> float:
    """K_q = E||Z||^{-q} for Z ~ N(0, I_d): 2^{-q/2} Gamma((d-q)/2) / Gamma(d/2),
    defined only for 0 < q < d."""
    if not 0 < q < d:
        raise GateError(f"negative moment requires 0 < q < d, got q={q}, d={d}")
    return float(np.exp(-0.5 * q * np.log(2.0) + gammaln((d - q) / 2) - gammaln(d / 2)))


def require_bessel_dimension(d: int) -> None:
    """The Bessel process R = ||B|| is studied only for d >= 2."""
    if d < 2:
        raise GateError(f"the Bessel process needs d >= 2, got d={d}")


def bessel_from_multipath(path: MultiPath) -> RealPath:
    """R_t = ||B_t||, the nodewise Euclidean norm of a d >= 2 path."""
    if path.dimension < 2:
        raise DomainError(f"the Bessel process needs d >= 2, got d={path.dimension}")
    return RealPath(path.grid, np.linalg.norm(path.values, axis=1))


def theta_path(path: MultiPath, hurst: float) -> RealPath:
    """Theta_t = R_t - H (d-1) int_0^t s^{2H-1} / R_s ds along one path.

    Requires R_{t_i} > 0 for i >= 1 (an almost-sure event; a zero signals a
    corrupted sampler, not randomness).
    """
    h = check_hurst(hurst)
    d = path.dimension
    r = bessel_from_multipath(path)
    interior = r.values[1:]
    if np.any(interior == 0.0):
        i = 1 + int(np.flatnonzero(interior == 0.0)[0])
        raise NumericalError(
            f"degenerate Bessel path: R = 0 at node {i} (probability zero; "
            "the sampler is corrupted)"
        )
    inv_r = np.concatenate([[0.0], 1.0 / interior])  # node 0 never used
    # (d - 1) stays in the scalar weight: folding it into 1/R changes bits
    return ito_representation(r.values, h * (d - 1), inv_r, path.grid, h)


def require_variation_gate(d: int, hurst: float) -> None:
    """The Theta variation limit is only claimed under 2 d H^2 > 1."""
    h = check_hurst(hurst)
    if not 2 * d * h * h > 1:
        raise GateError(
            f"Theta variation requires 2dH^2 > 1; got 2*{d}*{h}^2 = {2 * d * h * h:.4g} <= 1"
        )


def _moment_grid(t_list: list[float], max_n: int = 4096) -> UniformGrid:
    """Smallest uniform grid whose nodes contain every requested time."""
    horizon = max(t_list)
    for n in range(1, max_n + 1):
        dt = horizon / n
        if all(abs(t / dt - round(t / dt)) < 1e-9 for t in t_list):
            return UniformGrid(horizon, n)
    raise ConfigError(f"t_list {t_list} does not fit a uniform grid with n <= {max_n}")


def _moment_rep(paths: PathJob, q: float, indices: tuple, r: int) -> list[float]:
    radii = np.linalg.norm(paths.sample(r).values, axis=1)[list(indices)]
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
    grid = _moment_grid(t_list)
    indices = tuple(grid.index_of(t) for t in t_list)
    paths = PathJob(
        h, d, grid.horizon, grid.n, SeedSpec(config.master_seed), config.param("method")
    )
    per_rep = replication_map(
        functools.partial(_moment_rep, paths, q, indices), replications, workers
    )
    rows = []
    for k, t in enumerate(t_list):
        est, stderr = aggregate([per_rep[r][k] for r in range(replications)])
        target = constant * t ** (-h * q)
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
    meta = {
        "experiment": "negative-moments",
        "dimension": d,
        "q": q,
        "hurst": h,
        "replications": replications,
        "master_seed": config.master_seed,
        "grid_n": grid.n,
    }
    return Report(
        columns=("t", "estimate", "target", "abs_err", "rel_err", "stderr"),
        rows=rows,
        extra=extra,
        flags=flags,
        meta=meta,
    )


def _theta_terminal_rep(paths: PathJob, r: int) -> float:
    return float(theta_path(paths.sample(r), paths.hurst).values[-1])


def self_similarity_suite(config: ExperimentConfig, workers: int) -> Report:
    """KS comparison of a^{-H} Theta_{at} against an independent Theta_t for
    every a in ``a_list`` at time ``t``, with a power control.

    Self-similarity is tested one marginal at a time: the processes are equal
    in law, and the marginal two-sample KS statistic is the falsifiable
    desk-scale projection of that statement.  Case k draws its two arms from
    disjoint replication ranges of the master seed, ``2 k m`` and
    ``(2 k + 1) m`` onwards.  The pass threshold is Bonferroni-corrected
    across the proper pairs (p > level / #pairs each).  With ``control`` a
    last case repeats the largest a with the wrong exponent a^{-2H} and must
    be *rejected* at the same corrected threshold, demonstrating the test has
    power at this sample size.
    """
    d, h, replications = config.dimension, config.hurst, config.replications
    seed = SeedSpec(config.master_seed)
    a_list, t, level = config.param("a_list"), config.param("t"), config.param("level")
    grid_size, method = config.param("grid_size"), config.param("method")
    require_bessel_dimension(d)
    if not 0 < level < 1:
        raise ConfigError(f"KS level must lie in (0, 1), got {level}")
    if not t > 0:
        raise DomainError(f"time t must be positive, got {t}")
    for a in a_list:  # every scale before the first arm runs
        if not a > 0:
            raise DomainError(f"scale factor a must be positive, got {a}")
        if not 0 < a * t < math.inf:
            raise DomainError(f"the scaled time a * t must be positive and finite, got {a} * {t}")
    control = config.param("control")
    cases = [(a, "a^-H", -h) for a in a_list]
    if control:
        if max(a_list) == 1:
            raise ConfigError("a power control at a = 1 is never rejected: a^-H = a^-2H there")
        cases.append((max(a_list), "a^-2H", -2 * h))
    # Imported here, not at module level: scipy.stats is over a third of
    # the package's start-up time, and only this experiment uses it.
    from scipy.stats import ks_2samp

    threshold = level / len(a_list)
    rows = []
    for k, (a, scaling, exponent) in enumerate(cases):
        arm_seed = seed.replicate(2 * k * replications)
        arms = []
        for horizon, arm in ((a * t, arm_seed), (t, arm_seed.replicate(replications))):
            paths = PathJob(h, d, horizon, grid_size, arm, method)
            rep = functools.partial(_theta_terminal_rep, paths)
            arms.append(np.array(replication_map(rep, replications, workers)))
        stat, p_value = (float(x) for x in ks_2samp(arms[0] * a**exponent, arms[1]))
        ok = p_value < threshold if scaling == "a^-2H" else p_value > threshold
        rows.append((a, t, scaling, replications, stat, p_value, threshold, ok))
    flags = {"marginals_match": all(row[-1] for row in rows[: len(a_list)])}
    if control:
        flags["control_rejected"] = rows[-1][-1]
    meta = {
        "experiment": "self-similarity",
        "dimension": d,
        "hurst": h,
        "replications": replications,
        "master_seed": config.master_seed,
        "grid_size": grid_size,
        "level": level,
    }
    return Report(
        columns=("a", "t", "scaling", "m", "ks_stat", "p_value", "threshold", "ok"),
        rows=rows,
        flags=flags,
        meta=meta,
    )
