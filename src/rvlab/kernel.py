"""Volterra kernel numerics for rough fBm (H < 1/2).

Evaluates the square-root kernel K_H of the covariance factorization
R_H(t, s) = int_0^{t^s} K_H(t, u) K_H(s, u) du, its t-derivative, the
operator K* on step functions, the induced inner product, the seminorm
built from weighted L^2 and double-integral terms, and the extended inner
product against indicators.

The kernel's inner integral int_s^t u^{H-3/2} (u-s)^{H-1/2} du is an
incomplete Beta function (substitute u = s/v), so K_H itself needs no
quadrature; adaptive Gauss-Kronrod quadrature is left only for the outer
L^2 integrals.  K* is evaluated on step functions exactly by linearity over
indicator differences, so no quadrature over t is ever needed.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
from scipy import integrate
from scipy.special import betainc, gammaln

from .core import HurstParam, StepFunction, as_hurst
from .errors import DomainError, QuadratureError
from .fbm import covariance

__all__ = [
    "constant_cH",
    "kernel_K",
    "kernel_dKdt",
    "kstar_indicator",
    "kstar_step",
    "inner_product_H",
    "seminorm_K",
    "seminorm_components",
    "extended_inner",
    "covariance_via_kernel",
    "kernel_check_table",
    "DEFAULT_L2_TOL",
]

# Relative tolerance of the outer L^2 quadratures, whose integrands keep
# integrable power singularities at grid nodes.
DEFAULT_L2_TOL = 1e-7


@functools.lru_cache(maxsize=64)
def _log_beta(h: float) -> float:
    """log B(1-2H, H+1/2), through log-Gamma."""
    return gammaln(1 - 2 * h) + gammaln(h + 0.5) - gammaln(1.5 - h)


@functools.lru_cache(maxsize=64)
def constant_cH(hurst: HurstParam | float) -> float:
    """The kernel normalization c_H = sqrt(2H / ((1-2H) B(1-2H, H+1/2))).

    The constant blows up as H approaches 1/2 (pole of 1 - 2H).
    """
    hp = as_hurst(hurst)
    hp.require_rough("the Volterra kernel constant")
    h = hp.h
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
    incomplete = float(betainc(h + 0.5, 1 - 2 * h, (t - s) / t))
    return s ** (2 * h - 1) * math.exp(_log_beta(h)) * incomplete


def kernel_K(hurst: HurstParam | float, t: float, s: float) -> float:
    """The Volterra kernel K_H(t, s) for 0 < s < t, H < 1/2.

    K_H(t, s) = c_H [ (t/s)^{H-1/2} (t-s)^{H-1/2}
                      - (H - 1/2) s^{1/2-H} int_s^t u^{H-3/2} (u-s)^{H-1/2} du ].

    The prefactor of the integral term is s^{1/2-H}: this is the variant
    consistent with the closed-form dK/dt and it reproduces the covariance
    (verified by the kernel-check identity); the flipped exponent fails both.
    """
    hp = as_hurst(hurst)
    hp.require_rough("the Volterra kernel")
    h = hp.h
    if not (0.0 < s < t):
        raise DomainError(f"kernel_K requires 0 < s < t, got t={t}, s={s}")
    c_h = constant_cH(hp)
    direct = (t / s) ** (h - 0.5) * (t - s) ** (h - 0.5)
    return c_h * (direct - (h - 0.5) * s ** (0.5 - h) * _inner_integral(h, t, s))


def kernel_dKdt(hurst: HurstParam | float, t: float, s: float) -> float:
    """Closed-form dK_H/dt(t, s) = c_H (H-1/2) (t/s)^{H-1/2} (t-s)^{H-3/2}.

    Strictly negative for H < 1/2.
    """
    hp = as_hurst(hurst)
    hp.require_rough("the kernel derivative")
    h = hp.h
    if not (0.0 < s < t):
        raise DomainError(f"kernel_dKdt requires 0 < s < t, got t={t}, s={s}")
    return constant_cH(hp) * (h - 0.5) * (t / s) ** (h - 0.5) * (t - s) ** (h - 1.5)


def kstar_indicator(hurst: HurstParam | float, t: float, s: float) -> float:
    """(K* 1_[0,t])(s) = K_H(t, s) for s < t and 0 for s > t."""
    if not s > 0:
        raise DomainError(f"kstar_indicator requires s > 0, got s={s}")
    if s == t:
        raise DomainError("kstar_indicator is not defined on the boundary s = t")
    if s > t:
        return 0.0
    return kernel_K(hurst, t, s)


def _jump_coefficients(phi: StepFunction) -> list[tuple[float, float]]:
    """K* phi as sum_j c_j K(t_j, .) 1_{. < t_j}: the (t_j, c_j) with c_j != 0.

    Writing phi = sum_j a_j (1_[0,t_{j+1}] - 1_[0,t_j]) and telescoping gives
    c_j = a_{j-1} - a_j at interior nodes and c_n = a_{n-1} at the horizon.
    """
    grid, a = phi.grid, phi.coefficients
    pairs = []
    for j in range(1, grid.n):
        c = a[j - 1] - a[j]
        if c != 0.0:
            pairs.append((grid.node(j), c))
    if a[-1] != 0.0:
        pairs.append((grid.horizon, a[-1]))
    return pairs


def kstar_step(hurst: HurstParam | float, phi: StepFunction, s: float) -> float:
    """(K* phi)(s) for a step function phi, exact by linearity.

    Requires 0 < s < T with s off the grid nodes (where the kernel terms are
    singular); quadratures calling this never sample nodes.
    """
    grid = phi.grid
    if not (0.0 < s < grid.horizon):
        raise DomainError(f"kstar_step requires 0 < s < T, got s={s}")
    total = 0.0
    for node, coeff in _jump_coefficients(phi):
        if s == node:
            raise DomainError(f"kstar_step is singular at the grid node s={s}")
        if s < node:
            total += coeff * kernel_K(hurst, node, s)
    return total


def _interior_breakpoints(*phis: StepFunction) -> list[float]:
    points = set()
    for phi in phis:
        for node, _ in _jump_coefficients(phi):
            if node < phi.grid.horizon:
                points.add(node)
    return sorted(points)


def inner_product_H(
    hurst: HurstParam | float,
    phi: StepFunction,
    psi: StepFunction,
    rtol: float = DEFAULT_L2_TOL,
) -> float:
    """Inner product <phi, psi> = int_0^T (K* phi)(s) (K* psi)(s) ds.

    By the isometry this coincides with the Gaussian-space inner product; in
    particular indicator pairs reproduce the covariance.  Quadrature is
    adaptive with break points at the step functions' jump nodes, where
    K* phi has integrable power singularities.
    """
    if phi.grid != psi.grid:
        raise DomainError("inner_product_H requires step functions on a shared grid")
    hp = as_hurst(hurst)
    hp.require_rough("the H-space inner product")

    def integrand(s: float) -> float:
        return kstar_step(hp, phi, s) * kstar_step(hp, psi, s)

    points = _interior_breakpoints(phi, psi)
    return _quad(integrand, 0.0, phi.grid.horizon, rtol, points=points or None)


def seminorm_components(
    hurst: HurstParam | float, phi: StepFunction, rtol: float = DEFAULT_L2_TOL
) -> tuple[float, float]:
    """The two integrals making up the squared seminorm ||phi||_K^2.

    First term: int_0^T phi(s)^2 [(T-s)^{2H-1} + s^{2H-1}] ds, exact per cell
    for step functions.  Second term: int_0^T G(s)^2 ds with
    G(s) = int_s^T |phi(t) - phi(s)| (t-s)^{H-3/2} dt, whose inner integral
    is an exact sum of power antiderivatives for step phi.
    """
    hp = as_hurst(hurst)
    hp.require_rough("the seminorm")
    h = hp.h
    grid, a = phi.grid, phi.coefficients
    T = grid.horizon
    nodes = grid.nodes()

    cells = (
        a**2
        * (
            ((T - nodes[:-1]) ** (2 * h) - (T - nodes[1:]) ** (2 * h))
            + (nodes[1:] ** (2 * h) - nodes[:-1] ** (2 * h))
        )
        / (2 * h)
    )
    first = math.fsum(cells)

    if np.all(a == a[0]):
        return first, 0.0

    def g(s: float) -> float:
        i = min(int(s / grid.dt), grid.n - 1)
        if s >= nodes[i + 1]:
            i += 1
        total = 0.0
        for j in range(i + 1, grid.n):
            diff = abs(a[j] - a[i])
            if diff == 0.0:
                continue
            total += diff * (
                (nodes[j] - s) ** (h - 0.5) - (nodes[j + 1] - s) ** (h - 0.5)
            ) / (0.5 - h)
        return total

    second = _quad(lambda s: g(s) ** 2, 0.0, T, rtol, points=list(nodes[1:-1]) or None)
    return first, second


def seminorm_K(
    hurst: HurstParam | float, phi: StepFunction, rtol: float = DEFAULT_L2_TOL
) -> float:
    """The seminorm ||phi||_K (square root of the two-term squared form)."""
    first, second = seminorm_components(hurst, phi, rtol)
    return float(np.sqrt(first + second))


def extended_inner(hurst: HurstParam | float, phi: StepFunction, t: float) -> float:
    """Extended pairing <phi, 1_[0,t]> = int_0^T phi_s dR/ds(s, t) ds.

    dR/ds(s, t) = H (s^{2H-1} + sign(t-s) |t-s|^{2H-1}), obtained by direct
    differentiation of the covariance.  Against piecewise-constant phi the
    integral telescopes through the exact antiderivative s -> R(s, t), so the
    value is sum_i a_i (R(t_{i+1}, t) - R(t_i, t)) with no quadrature at all.
    """
    hp = as_hurst(hurst)
    grid = phi.grid
    grid.index_of(t)  # t must be a grid time
    nodes = grid.nodes()
    r = covariance(hp, nodes, t)
    return math.fsum(phi.coefficients * np.diff(r))


def covariance_via_kernel(
    hurst: HurstParam | float, t: float, s: float, rtol: float = DEFAULT_L2_TOL
) -> float:
    """Left side of the factorization identity: int_0^{t^s} K(t,u) K(s,u) du."""
    hp = as_hurst(hurst)
    hp.require_rough("the kernel factorization")
    if not (t > 0 and s > 0):
        raise DomainError("covariance_via_kernel requires positive times")
    upper = min(t, s)

    def integrand(u: float) -> float:
        left = kernel_K(hp, t, u) if u < t else 0.0
        right = kernel_K(hp, s, u) if u < s else 0.0
        return left * right

    return _quad(integrand, 0.0, upper, rtol)


def kernel_check_table(
    hurst: HurstParam | float,
    horizon: float = 1.0,
    lattice: int = 5,
    rtol: float = DEFAULT_L2_TOL,
) -> list[tuple[float, float, float, float, float]]:
    """Rows (t, s, lhs, rhs, rel_err) of the reproduction identity on a
    lattice of times i*T/lattice, restricted to s <= t by symmetry."""
    hp = as_hurst(hurst)
    hp.require_rough("the kernel reproduction check")
    if lattice < 1 or not rtol > 50 * np.finfo(float).eps:
        raise DomainError(f"need lattice >= 1 and rtol > 50 eps, got {lattice} and {rtol}")
    times = [i * horizon / lattice for i in range(1, lattice + 1)]
    rows = []
    for t in times:
        for s in times:
            if s > t:
                continue
            lhs = covariance_via_kernel(hp, t, s, rtol)
            rhs = covariance(hp, t, s)
            rows.append((t, s, lhs, rhs, abs(lhs - rhs) / abs(rhs)))
    return rows
