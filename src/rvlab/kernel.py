"""Volterra kernel numerics for rough fBm (H < 1/2).

Evaluates the square-root kernel K_H of the covariance factorization
R_H(t, s) = int_0^{t^s} K_H(t, u) K_H(s, u) du, the operator K* on step
functions, the induced inner product, and the registered reproduction check
built on it.

The kernel's inner integral int_s^t u^{H-3/2} (u-s)^{H-1/2} du is an
incomplete Beta function (substitute u = s/v), so K_H itself needs no
quadrature.  K* is evaluated on step functions exactly by linearity over
indicator differences, so the one adaptive Gauss-Kronrod quadrature left is
the L^2 integral of ``inner_product_H``; the reproduction identity is its
value on two indicators, since K* 1_[0,t] = K_H(t, .).
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import TYPE_CHECKING

import numpy as np
from scipy import integrate
from scipy.special import gammaln
from scipy.special.cython_special import betainc  # the ufunc's kernel, no ufunc overhead

from .core import StepFunction, UniformGrid, check_hurst
from .errors import DomainError, QuadratureError
from .fbm import covariance
from .report import Report

if TYPE_CHECKING:
    from .harness import ExperimentConfig

__all__ = [
    "constant_cH",
    "kernel_K",
    "kstar_step",
    "inner_product_H",
    "covariance_via_kernel",
    "kernel_check_experiment",
    "DEFAULT_L2_TOL",
]

# Relative tolerance of the L^2 quadrature in inner_product_H, whose integrand
# keeps integrable power singularities at jump nodes.
DEFAULT_L2_TOL = 1e-7


@functools.lru_cache(maxsize=64)
def _log_beta(h: float) -> float:
    """log B(1-2H, H+1/2), through log-Gamma."""
    return gammaln(1 - 2 * h) + gammaln(h + 0.5) - gammaln(1.5 - h)


@functools.lru_cache(maxsize=64)
def constant_cH(hurst: float) -> float:
    """The kernel normalization c_H = sqrt(2H / ((1-2H) B(1-2H, H+1/2))).

    The constant blows up as H approaches 1/2 (pole of 1 - 2H).
    """
    h = check_hurst(hurst, "the Volterra kernel constant")
    return float(np.sqrt(2 * h / ((1 - 2 * h) * np.exp(_log_beta(h)))))


def _quad(func, a, b, rtol, points=None, limit=400) -> float:
    """scipy.integrate.quad that fails on overflow, on a missed rtol and, at any
    scale, whenever quadpack reports failure (its 4th, message element)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            result = integrate.quad(
                func, a, b, epsabs=0.0, epsrel=rtol, limit=limit, points=points,
                full_output=True,
            )
    except OverflowError as exc:
        raise QuadratureError(
            f"quadrature on [{a}, {b}] overflowed: {exc}", achieved=math.inf
        ) from exc
    value, abserr = result[0], result[1]
    if len(result) > 3 or abserr > max(rtol * abs(value), 1e-13):
        raise QuadratureError(
            f"quadrature on [{a}, {b}] did not reach rtol={rtol}: "
            f"achieved error estimate {abserr:.3e} on value {value:.6e}",
            achieved=float(abserr),
        )
    return value


def _inner_integral(h: float, t: float, s: float) -> float:
    """int_s^t u^{H-3/2} (u-s)^{H-1/2} du = s^{2H-1} B(a, b) I_x(b, a), x = (t-s)/t.

    With a = 1-2H and b = H+1/2, u = s/v gives s^{2H-1} int_{s/t}^1 v^{a-1} (1-v)^{b-1} dv
    (Decreusefond & Ustunel 1999; Nualart 2006, Sec. 5.1).  Passing (t-s)/t,
    not 1 - s/t, keeps the precision as s/t -> 1."""
    incomplete = betainc(h + 0.5, 1 - 2 * h, (t - s) / t)
    return s ** (2 * h - 1) * math.exp(_log_beta(h)) * incomplete


def kernel_K(hurst: float, t: float, s: float) -> float:
    """The Volterra kernel K_H(t, s) for 0 < s < t, H < 1/2.

    K_H(t, s) = c_H [ (t/s)^{H-1/2} (t-s)^{H-1/2}
                      - (H - 1/2) s^{1/2-H} int_s^t u^{H-3/2} (u-s)^{H-1/2} du ].

    The prefactor of the integral term is s^{1/2-H}: this is the variant
    consistent with the closed-form dK/dt and it reproduces the covariance
    (verified by the kernel-check identity); the flipped exponent fails both.
    """
    h = check_hurst(hurst, "the Volterra kernel")
    if not (0.0 < s < t):
        raise DomainError(f"kernel_K requires 0 < s < t, got t={t}, s={s}")
    c_h = constant_cH(h)
    direct = (t / s) ** (h - 0.5) * (t - s) ** (h - 0.5)
    return c_h * (direct - (h - 0.5) * s ** (0.5 - h) * _inner_integral(h, t, s))


def _jump_coefficients(phi: StepFunction) -> list[tuple[float, float]]:
    """K* phi as sum_j c_j K(t_j, .) 1_{. < t_j}: the (t_j, c_j) with c_j != 0.

    Writing phi = sum_j a_j (1_[0,t_{j+1}] - 1_[0,t_j]) and telescoping gives
    c_j = a_{j-1} - a_j at interior nodes and c_n = a_{n-1} at the horizon.
    """
    grid, a = phi.grid, phi.coefficients.tolist()
    pairs = []
    for j in range(1, grid.n):
        c = a[j - 1] - a[j]
        if c != 0.0:
            pairs.append((grid.node(j), c))
    if a[-1] != 0.0:
        pairs.append((grid.horizon, a[-1]))
    return pairs


def _kstar(h: float, pairs: list[tuple[float, float]], s: float) -> float:
    """sum_j c_j K(t_j, s) over the jumps (t_j, c_j) above s."""
    total = 0.0
    for node, coeff in pairs:
        if s == node:
            raise DomainError(f"K* is singular at the grid node s={s}")
        if s < node:
            total += coeff * kernel_K(h, node, s)
    return total


def kstar_step(hurst: float, phi: StepFunction, s: float) -> float:
    """(K* phi)(s) for a step function phi, exact by linearity.

    Requires 0 < s < T with s off the jump nodes, where the kernel terms are
    singular.
    """
    if not (0.0 < s < phi.grid.horizon):
        raise DomainError(f"kstar_step requires 0 < s < T, got s={s}")
    return _kstar(check_hurst(hurst, "the operator K*"), _jump_coefficients(phi), s)


def inner_product_H(
    hurst: float,
    phi: StepFunction,
    psi: StepFunction,
    rtol: float = DEFAULT_L2_TOL,
) -> float:
    """Inner product <phi, psi> = int_0^T (K* phi)(s) (K* psi)(s) ds.

    By the isometry this coincides with the Gaussian-space inner product; in
    particular indicator pairs reproduce the covariance.  K* phi vanishes
    beyond phi's last jump, so the quadrature stops at the earlier of the two
    last jumps, with break points at the jumps below it, where K* phi has
    integrable power singularities.
    """
    if phi.grid != psi.grid:
        raise DomainError("inner_product_H requires step functions on a shared grid")
    h = check_hurst(hurst, "the H-space inner product")
    phi_jumps, psi_jumps = _jump_coefficients(phi), _jump_coefficients(psi)
    if not (phi_jumps and psi_jumps):
        return 0.0
    end = min(phi_jumps[-1][0], psi_jumps[-1][0])

    def integrand(s: float) -> float:
        return _kstar(h, phi_jumps, s) * _kstar(h, psi_jumps, s)

    points = sorted({node for node, _ in phi_jumps + psi_jumps if node < end})
    return _quad(integrand, 0.0, end, rtol, points=points or None)


def covariance_via_kernel(
    hurst: float, grid: UniformGrid, i: int, j: int,
    rtol: float = DEFAULT_L2_TOL,
) -> float:
    """Left side of the factorization identity at (t_i, t_j): <1_[0,t_i], 1_[0,t_j]>."""
    return inner_product_H(
        hurst, StepFunction.indicator(grid, i), StepFunction.indicator(grid, j), rtol
    )


# quadpack takes subinterval midpoints as 0.5 * (a + b), and a + b overflows
# once it passes the largest double: on [0, T] with T above half of it,
# quadpack reports success on values 15-50% off (from T = 9.06e307 at H = 0.3)
_MAX_HORIZON = np.finfo(float).max / 2


def kernel_check_experiment(config: ExperimentConfig, workers: int) -> Report:
    """The reproduction identity on the nodes of UniformGrid(horizon, lattice).

    Rows (t, s, lhs, rhs, rel_err), restricted to s <= t by symmetry; the
    check passes when the largest relative error is below ``rel_err_max``.
    No randomness and no pool: ``workers`` is unused.
    """
    h = check_hurst(config.hurst, "the kernel reproduction check")
    horizon, lattice, rtol = config.horizon, config.param("lattice"), config.param("rtol")
    if lattice < 1 or not 50 * np.finfo(float).eps < rtol < 1:
        raise DomainError(f"need lattice >= 1 and 50 eps < rtol < 1, got {lattice} and {rtol}")
    # grid.node(i) computes i * horizon / lattice, so (lattice - 1) * horizon must stay finite
    if not (horizon <= _MAX_HORIZON and math.isfinite((lattice - 1) * horizon)):
        raise DomainError(
            f"kernel-check needs horizon <= {_MAX_HORIZON:.4g} and a finite "
            f"(lattice - 1) * horizon, got horizon {horizon} at lattice {lattice}"
        )
    grid = UniformGrid(horizon, lattice)
    rows = []
    for i in range(1, lattice + 1):
        for j in range(1, i + 1):
            t, s = grid.node(i), grid.node(j)
            lhs = covariance_via_kernel(h, grid, i, j, rtol)
            rhs = covariance(h, t, s)
            rows.append((t, s, lhs, rhs, abs(lhs - rhs) / abs(rhs)))
    worst = max(r[4] for r in rows)
    return Report(
        columns=("t", "s", "lhs", "rhs", "rel_err"),
        rows=rows,
        extra={"max_rel_err": worst},
        flags={"reproduction_ok": worst < config.param("rel_err_max", "tolerances")},
        meta={"experiment": "kernel-check", "hurst": config.hurst},
    )
