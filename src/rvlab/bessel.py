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
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import (
    HurstParam,
    MultiPath,
    RealPath,
    SeedSpec,
    UniformGrid,
    as_hurst,
    ito_representation,
)
from .errors import ConfigError, DomainError, GateError, NumericalError
from .fbm import PathJob
from .parallel import replication_map
from .report import Report, aggregate, build_id, check_shape, loglog_fit

__all__ = [
    "k_q",
    "bessel_from_multipath",
    "theta_path",
    "require_bessel_dimension",
    "require_variation_gate",
    "negative_moment_experiment",
    "KSOutcome",
    "self_similarity_test",
    "self_similarity_suite",
    "DEFAULT_KS_LEVEL",
]

DEFAULT_KS_LEVEL = 0.01


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


def theta_path(path: MultiPath, hurst: HurstParam | float) -> RealPath:
    """Theta_t = R_t - H (d-1) int_0^t s^{2H-1} / R_s ds along one path.

    Requires R_{t_i} > 0 for i >= 1 (an almost-sure event; a zero signals a
    corrupted sampler, not randomness).
    """
    h = as_hurst(hurst).h
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


def require_variation_gate(d: int, hurst: HurstParam | float) -> None:
    """The Theta variation limit is only claimed under 2 d H^2 > 1."""
    h = as_hurst(hurst).h
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


def negative_moment_experiment(
    d: int,
    q: float,
    hurst: HurstParam | float,
    t_list: list[float],
    replications: int,
    seed: SeedSpec,
    workers: int = 1,
    method: str = "circulant",
) -> Report:
    """Monte Carlo check of E(R_t^{-q}) = K_q t^{-Hq} for q < d.

    Reports per-t estimates against the closed-form target plus a log-log
    regression whose slope is compared to -Hq and intercept to log K_q.
    """
    hp = as_hurst(hurst)
    constant = k_q(d, q)  # gates 0 < q < d
    require_bessel_dimension(d)
    if len(t_list) < 2:
        raise ConfigError("need at least two times for the scaling regression")
    if sorted(set(t_list)) != list(t_list) or min(t_list) <= 0:
        raise ConfigError("t_list must be positive and strictly increasing")
    check_shape(replications)
    grid = _moment_grid(t_list)
    indices = tuple(grid.index_of(t) for t in t_list)
    paths = PathJob(hp.h, d, grid.horizon, grid.n, seed, method)
    per_rep = replication_map(
        functools.partial(_moment_rep, paths, q, indices), replications, workers
    )
    rows = []
    for k, t in enumerate(t_list):
        est, stderr = aggregate([per_rep[r][k] for r in range(replications)])
        target = constant * t ** (-hp.h * q)
        abs_err = abs(est - target)
        rows.append((t, est, target, abs_err, abs_err / target, stderr))
    slope, intercept, r2 = loglog_fit(t_list, [row[1] for row in rows])
    extra = {
        "slope": slope,
        "slope_target": -hp.h * q,
        "intercept": intercept,
        "intercept_target": float(np.log(constant)),
        "r_squared": r2,
        "k_q": constant,
    }
    meta = {
        "experiment": "negative-moments",
        "dimension": d,
        "q": q,
        "hurst": hp.h,
        "replications": replications,
        "master_seed": seed.master_seed,
        "grid_n": grid.n,
        "build": build_id(),
    }
    return Report(
        columns=("t", "estimate", "target", "abs_err", "rel_err", "stderr"),
        rows=rows,
        extra=extra,
        meta=meta,
    )


def _theta_terminal_rep(paths: PathJob, r: int) -> float:
    return float(theta_path(paths.sample(r), paths.hurst).values[-1])


@dataclass(frozen=True)
class KSOutcome:
    """Two-sample Kolmogorov-Smirnov comparison of Theta marginals."""

    a: float
    t: float
    scaling: str  # "a^-H" or the deliberately wrong "a^-2H"
    statistic: float
    p_value: float


def _require_scale(a: float, t: float) -> None:
    if not a > 0:
        raise DomainError(f"scale factor a must be positive, got {a}")
    if not t > 0:
        raise DomainError(f"time t must be positive, got {t}")


def self_similarity_test(
    d: int,
    hurst: HurstParam | float,
    a: float,
    t: float,
    replications: int,
    seed: SeedSpec,
    workers: int = 1,
    grid_size: int = 1024,
    method: str = "circulant",
    wrong_scaling: bool = False,
) -> KSOutcome:
    """KS comparison of a^{-H} Theta_{at} against an independent Theta_t.

    Both Monte Carlo arms use disjoint replication ranges of the same master
    seed.  Self-similarity is tested one marginal at a time: the processes
    are equal in law, and the marginal KS statistic is the falsifiable
    desk-scale projection of that statement.  With ``wrong_scaling`` the
    first arm is rescaled by a^{-2H} instead, which a powerful test must
    reject.
    """
    hp = as_hurst(hurst)
    require_bessel_dimension(d)
    _require_scale(a, t)
    arms = []
    for horizon, arm_seed in ((a * t, seed), (t, seed.replicate(replications))):
        paths = PathJob(hp.h, d, horizon, grid_size, arm_seed, method)
        rep = functools.partial(_theta_terminal_rep, paths)
        arms.append(np.array(replication_map(rep, replications, workers)))
    # Imported here, not at module level: scipy.stats is over a third of
    # the package's start-up time, and only this test uses it.
    from scipy.stats import ks_2samp

    arm_scaled, arm_plain = arms
    exponent = -2 * hp.h if wrong_scaling else -hp.h
    stat, p_value = ks_2samp(arm_scaled * a**exponent, arm_plain)
    return KSOutcome(
        a=a,
        t=t,
        scaling="a^-2H" if wrong_scaling else "a^-H",
        statistic=float(stat),
        p_value=float(p_value),
    )


def self_similarity_suite(
    d: int,
    hurst: HurstParam | float,
    pairs: list[tuple[float, float]],
    replications: int,
    seed: SeedSpec,
    workers: int = 1,
    grid_size: int = 1024,
    method: str = "circulant",
    level: float = DEFAULT_KS_LEVEL,
    control_a: float | None = 4.0,
) -> Report:
    """Run KS self-similarity tests over (a, t) pairs with a power control.

    The pass threshold is Bonferroni-corrected across the proper pairs
    (p > level / #pairs each).  The control row repeats the largest-|a| test
    with the wrong exponent a^{-2H} and must be *rejected* at the same
    corrected threshold, demonstrating the test has power at this sample
    size.
    """
    hp = as_hurst(hurst)
    if not pairs:
        raise ConfigError("need at least one (a, t) pair")
    if not 0 < level < 1:
        raise ConfigError(f"KS level must lie in (0, 1), got {level}")
    if control_a == 1:
        raise ConfigError("a power control at a = 1 is never rejected: a^-H = a^-2H there")
    for a, t in pairs:  # every pair before the first test runs
        _require_scale(a, t)
    threshold = level / len(pairs)
    rows = []
    ok = True
    offset = 0
    for a, t in pairs:
        outcome = self_similarity_test(
            d, hp, a, t, replications, seed.replicate(offset), workers, grid_size, method
        )
        offset += 2 * replications
        passed = outcome.p_value > threshold
        ok = ok and passed
        rows.append(
            (a, t, outcome.scaling, replications, outcome.statistic, outcome.p_value,
             threshold, passed)
        )
    flags = {"marginals_match": ok}
    if control_a is not None:
        matching = [t for a, t in pairs if a == control_a]
        t_control = matching[0] if matching else pairs[-1][1]
        control = self_similarity_test(
            d, hp, control_a, t_control, replications, seed.replicate(offset), workers,
            grid_size, method, wrong_scaling=True,
        )
        detected = control.p_value < threshold
        rows.append(
            (control_a, t_control, control.scaling, replications, control.statistic,
             control.p_value, threshold, detected)
        )
        flags["control_rejected"] = detected
    meta = {
        "experiment": "self-similarity",
        "dimension": d,
        "hurst": hp.h,
        "replications": replications,
        "master_seed": seed.master_seed,
        "grid_size": grid_size,
        "level": level,
        "build": build_id(),
    }
    return Report(
        columns=("a", "t", "scaling", "m", "ks_stat", "p_value", "threshold", "ok"),
        rows=rows,
        flags=flags,
        meta=meta,
    )
