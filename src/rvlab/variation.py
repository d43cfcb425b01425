"""q-variation statistics and the Gaussian moments E||Z_d||^p.

The q-variation of a process sampled on a grid is the finite sum of q-th
powers of the absolute increments of its node values.  For fBm with q = 1/H it
converges in L^1 to e_H * T, where e_H is the absolute 1/H-moment of a
standard Gaussian; :func:`rvlab.ito.fbm_variation` measures that
convergence grid by grid.  e_H, the xi target's c_p and the Bessel K_q are
all moments E||Z_d||^p of one chi law, computed in one place
(:func:`chi_moment`) from ``math.lgamma``, so no scipy module is loaded.
"""

from __future__ import annotations

import math

import numpy as np

from .core import check_hurst
from .errors import DomainError, NumericalError

__all__ = [
    "variation_Vnq",
    "chi_moment",
    "e_H",
]


def variation_Vnq(values: np.ndarray, q: float) -> float:
    """q-variation V_n^q(X) = sum_i |X_{t_{i+1}} - X_{t_i}|^q of the node values of X.

    The sum runs left to right with compensated summation so the value is
    identical no matter how replications were scheduled.  A sum that
    overflows is a numerical failure, not a statistic.
    """
    if not q > 0:
        raise DomainError(f"variation exponent must be positive, got {q}")
    with np.errstate(over="ignore"):
        powers = np.abs(np.diff(values)) ** q
    try:
        total = math.fsum(powers)
    except OverflowError:  # fsum's partial sums of finite terms passed the largest double
        total = math.inf
    if not math.isfinite(total):
        raise NumericalError(f"V_n^{q} of the path is non-finite: its increments overflow")
    return total


def chi_moment(d: int, p: float) -> float:
    """E||Z||^p = 2^{p/2} Gamma((d + p)/2) / Gamma(d/2) for Z ~ N(0, I_d) and
    p > -d, via ``math.lgamma``; a value that is not a positive finite
    double is a numerical failure."""
    try:
        value = math.exp(
            0.5 * p * math.log(2.0) + math.lgamma(0.5 * (d + p)) - math.lgamma(0.5 * d)
        )
    except OverflowError:
        value = math.inf
    if not 0 < value < math.inf:
        way = "overflows a double" if value else "underflows to 0"
        raise NumericalError(f"the Gaussian moment E||Z||^p at d = {d}, p = {p} {way}")
    return value


def e_H(hurst: float) -> float:
    """e_H = E|Z|^{1/H}, the d = 1 case of :func:`chi_moment`."""
    return chi_moment(1, 1.0 / check_hurst(hurst))
