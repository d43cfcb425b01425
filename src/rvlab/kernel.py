"""Volterra kernel numerics for rough fBm (H < 1/2).

Evaluates the square-root kernel K_H of the covariance factorization
R_H(t, s) = int_0^{t^s} K_H(t, u) K_H(s, u) du, the left side of that
identity, and the registered reproduction check built on it.

The kernel's inner integral int_s^t u^{H-3/2} (u-s)^{H-1/2} du is an
incomplete Beta function (substitute u = s/v), evaluated by its continued
fraction, so K_H itself needs no quadrature.  The one quadrature left is the
L^2 integral of the kernel product in ``covariance_via_kernel``, scaled to
[0, 1] by min(t, s): a tanh-sinh (double-exponential) rule, which takes the
integrand's algebraic endpoint singularities to full precision (Takahasi &
Mori 1974).  The module needs numpy and math only; it imports no scipy.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .core import UniformGrid, check_hurst
from .errors import DomainError, NumericalError, QuadratureError
from .fbm import covariance
from .report import Report

if TYPE_CHECKING:
    from .harness import ExperimentConfig

__all__ = [
    "constant_cH",
    "kernel_K",
    "covariance_via_kernel",
    "kernel_check_experiment",
    "DEFAULT_L2_TOL",
]

# Relative tolerance of the L^2 quadrature in covariance_via_kernel, whose
# integrand keeps integrable power singularities at both endpoints.
DEFAULT_L2_TOL = 1e-7


@functools.lru_cache(maxsize=64)
def _log_beta(h: float) -> float:
    """log B(1-2H, H+1/2), through log-Gamma."""
    return math.lgamma(1 - 2 * h) + math.lgamma(h + 0.5) - math.lgamma(1.5 - h)


@functools.lru_cache(maxsize=64)
def constant_cH(hurst: float) -> float:
    """The kernel normalization c_H = sqrt(2H / ((1-2H) B(1-2H, H+1/2))).

    The constant blows up as H approaches 1/2 (pole of 1 - 2H).
    """
    h = check_hurst(hurst, "the Volterra kernel constant")
    return math.sqrt(2 * h / ((1 - 2 * h) * math.exp(_log_beta(h))))


_CF_TERMS = 64  # 15 suffice at the switch point for the kernel's p = H+1/2, q = 1-2H
_FP_MIN = 1e-300


def _betainc(p: float, q: float, x, y) -> np.ndarray:
    """The regularized incomplete Beta I_x(p, q), with y = 1 - x given exactly.

    A modified-Lentz evaluation of the continued fraction, used where
    x < (p+1)/(p+q+2); above it I_x(p, q) = 1 - I_y(q, p) (Press et al.,
    Numerical Recipes, Sec. 6.4).  Taking y from the caller keeps the
    precision of a complement that 1 - x would round away.
    """
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    flip = x > (p + 1) / (p + q + 2)
    a, b = np.where(flip, q, p), np.where(flip, p, q)
    z, w = np.where(flip, y, x), np.where(flip, x, y)
    log_b = math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    with np.errstate(divide="ignore"):  # z or w = 0: the front factor is 0
        front = np.exp(a * np.log(z) + b * np.log(w) - log_b) / a

    def floor(v):
        return np.where(np.abs(v) < _FP_MIN, _FP_MIN, v)

    c = np.ones_like(z)
    d = 1 / floor(1 - (a + b) * z / (a + 1))
    frac = d
    for k in range(1, _CF_TERMS + 1):
        even = k * (b - k) * z / ((a + 2 * k - 1) * (a + 2 * k))
        d = 1 / floor(1 + even * d)
        c = floor(1 + even / c)
        frac = frac * d * c
        odd = -(a + k) * (a + b + k) * z / ((a + 2 * k) * (a + 2 * k + 1))
        d = 1 / floor(1 + odd * d)
        c = floor(1 + odd / c)
        frac = frac * d * c
        if np.all(np.abs(d * c - 1) <= np.finfo(float).eps):
            break
    else:
        raise NumericalError(f"incomplete Beta I_x({p}, {q}) did not converge in {_CF_TERMS} terms")
    value = front * frac
    return np.where(flip, 1 - value, value)


def _inner_integral(h: float, t, s, gap):
    """int_s^t u^{H-3/2} (u-s)^{H-1/2} du = s^{2H-1} B(a, b) I_x(b, a), x = (t-s)/t.

    With a = 1-2H and b = H+1/2, u = s/v gives s^{2H-1} int_{s/t}^1 v^{a-1} (1-v)^{b-1} dv
    (Decreusefond & Ustunel 1999; Nualart 2006, Sec. 5.1).  ``gap`` is t - s;
    x = gap/t and its complement s/t are both formed without a subtraction,
    which keeps the precision as s/t -> 1 and as s/t -> 0."""
    beta = math.exp(_log_beta(h))
    return s ** (2 * h - 1) * beta * _betainc(h + 0.5, 1 - 2 * h, gap / t, s / t)


def kernel_K(hurst: float, t, s, gap=None):
    """The Volterra kernel K_H(t, s) for 0 < s < t, H < 1/2; elementwise on arrays.

    K_H(t, s) = c_H [ (t/s)^{H-1/2} (t-s)^{H-1/2}
                      - (H - 1/2) s^{1/2-H} int_s^t u^{H-3/2} (u-s)^{H-1/2} du ].

    The prefactor of the integral term is s^{1/2-H}: this is the variant
    consistent with the closed-form dK/dt and it reproduces the covariance
    (verified by the kernel-check identity); the flipped exponent fails both.
    ``gap`` is t - s, for a caller that has it more exactly than the
    subtraction, as the quadrature does near its upper endpoint.
    """
    h = check_hurst(hurst, "the Volterra kernel")
    t, s = np.asarray(t, float), np.asarray(s, float)
    gap = t - s if gap is None else np.asarray(gap, float)
    if not (np.all(s > 0) and np.all(gap > 0)):
        raise DomainError(f"kernel_K requires 0 < s < t, got t={t}, s={s}")
    direct = (s / t) ** (0.5 - h) * gap ** (h - 0.5)
    k = constant_cH(h) * (direct + (0.5 - h) * s ** (0.5 - h) * _inner_integral(h, t, s, gap))
    return float(k) if k.ndim == 0 else k


# tanh-sinh nodes u = 1 / (1 + exp(-pi sinh tau)), |tau| <= _TAU_MAX, reach
# within _END_GAP of either end of [0, 1].  Level k has 2 * 6 * 2^k + 1 nodes;
# they are evaluated in blocks of at most _BLOCK (value, node) entries, so
# memory does not grow with the number of integrals.
_END_GAP = 4 * np.finfo(float).tiny
_TAU_MAX = math.asinh(math.log(1 / _END_GAP) / math.pi)
_COARSE_NODES = 6
_MAX_LEVEL = 12
_BLOCK = 1 << 16


def _tanh_sinh(integrand, shape, rtol: float) -> np.ndarray:
    """int_0^1 f(u) du by the tanh-sinh rule, for an f with values of ``shape`` at each u.

    ``integrand(u, g)`` gets nodes u and their distances g = 1 - u, each of
    shape ``(nodes,)``, and returns ``shape + (nodes,)``; u and g both come
    from the transform, not from a subtraction, so nodes reach within 1e-307
    of either end.  The step halves until, for every value, the change from
    the previous level plus the tail beyond the outermost nodes is at most
    ``rtol`` times the value.  The tail is extrapolated from the decay
    between the outermost node and the one a step inside it.  Raises
    QuadratureError at the level cap or on a value that is not finite.
    """
    block = max(1, _BLOCK // max(1, math.prod(shape)))

    def level_sum(j, step):
        """Sum of the terms w(tau) f(u(tau)) at tau = j step, and the first and last term."""
        part = np.zeros(shape)
        for start in range(0, j.size, block):
            tau = j[start:start + block] * step
            grow = np.exp(math.pi * np.sinh(tau))
            lo, hi = 1 / (1 + grow), grow / (1 + grow)
            with np.errstate(all="ignore"):  # checked below
                terms = math.pi * np.cosh(tau) * lo * hi * integrand(hi, lo)
            if not np.all(np.isfinite(terms)):
                raise QuadratureError(
                    "tanh-sinh quadrature on [0, 1] met a value that is not finite",
                    achieved=math.inf,
                )
            part += terms.sum(axis=-1)
            if start == 0:
                first = terms[..., 0]
        return part, np.abs(np.stack([first, terms[..., -1]], axis=-1))

    step = _TAU_MAX / _COARSE_NODES
    total, ends = level_sum(np.arange(-_COARSE_NODES, _COARSE_NODES + 1), step)
    total *= step
    for level in range(1, _MAX_LEVEL + 1):
        count = _COARSE_NODES << level
        step = _TAU_MAX / count
        part, inner = level_sum(np.arange(1 - count, count, 2), step)
        previous, total = total, 0.5 * total + step * part
        # the terms decay double-exponentially beyond +-_TAU_MAX: the tail is
        # about the end term over its decay rate, a conservative one here
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.log(inner / ends) / step
            tail = np.where(ends > 0, ends / np.where(rate > 0, rate, 0.0), 0.0).sum(axis=-1)
        error = np.abs(total - previous) + tail
        if np.all(error <= rtol * np.abs(total)):
            return total
    with np.errstate(divide="ignore", invalid="ignore"):
        achieved = float(np.max(np.where(error > 0, error / np.abs(total), 0.0)))
    raise QuadratureError(
        f"tanh-sinh quadrature on [0, 1] did not reach rtol={rtol} in "
        f"{_MAX_LEVEL} halvings: achieved relative error estimate {achieved:.3e}",
        achieved=achieved,
    )


def covariance_via_kernel(hurst: float, t, s, rtol: float = DEFAULT_L2_TOL):
    """Left side of the factorization identity: int_0^{t^s} K_H(t, u) K_H(s, u) du.

    Elementwise over broadcast arrays t and s, in one quadrature.  The
    integrand has integrable power singularities at u = 0 and at the upper
    limit m = min(t, s).  K_H(ct, cs) = c^{H-1/2} K_H(t, s), so the integral
    is m^{2H} int_0^1 K_H(1, v) K_H(r, v) dv with r = max(t, s)/m, a finite
    double: every pair integrates on [0, 1], sharing the factor K_H(1, .).
    """
    h = check_hurst(hurst, "the H-space inner product")
    t, s = np.broadcast_arrays(np.asarray(t, float), np.asarray(s, float))
    low = np.minimum(t, s)
    with np.errstate(all="ignore"):  # checked below
        r = (np.maximum(t, s) / low)[..., None]
    if not (np.all(low > 0) and np.all(np.isfinite(r))):
        raise DomainError(f"covariance_via_kernel requires t, s > 0 and a finite double "
                          f"max(t, s)/min(t, s), got t={t}, s={s}")

    def product(u, g):
        return kernel_K(h, 1.0, u, g) * kernel_K(h, r, u, r - 1 + g)

    value = _tanh_sinh(product, low.shape, rtol) * low ** (2 * h)
    return float(value) if value.ndim == 0 else value


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
    if not math.isfinite((lattice - 1) * horizon):
        raise DomainError(
            f"kernel-check needs a finite (lattice - 1) * horizon, "
            f"got horizon {horizon} at lattice {lattice}"
        )
    grid = UniformGrid(horizon, lattice)
    pairs = [(grid.node(i), grid.node(j)) for i in range(1, lattice + 1) for j in range(1, i + 1)]
    t, s = np.array(pairs).T
    lhs = covariance_via_kernel(h, t, s, rtol)
    rows = []
    for (ti, si), left in zip(pairs, lhs.tolist()):
        right = covariance(h, ti, si)
        rows.append((ti, si, left, right, abs(left - right) / abs(right)))
    worst = max(r[4] for r in rows)
    return Report(
        columns=("t", "s", "lhs", "rhs", "rel_err"),
        rows=rows,
        extra={"max_rel_err": worst},
        flags={"reproduction_ok": worst < config.param("rel_err_max", "tolerances")},
    )
