"""q-variation statistics and the Gaussian moment constant e_H.

The q-variation of a process sampled on a grid is the finite sum of q-th
powers of the absolute increments of its node values.  For fBm with q = 1/H it
converges in L^1 to e_H * T, where e_H is the absolute 1/H-moment of a
standard Gaussian; :func:`rvlab.ito.fbm_variation` measures that
convergence grid by grid.  Both are plain floats; e_H takes log-Gamma from
``math.lgamma``, so the variation experiments load no scipy module.
"""

from __future__ import annotations

import math

import numpy as np

from .core import check_hurst
from .errors import DomainError, NumericalError

__all__ = [
    "variation_Vnq",
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


def e_H(hurst: float) -> float:
    """e_H = E|Z|^{1/H} = 2^{1/(2H)} Gamma((1/H + 1)/2) / Gamma(1/2), via ``math.lgamma``."""
    p = 1.0 / check_hurst(hurst)
    try:
        return math.exp(0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1)) - math.lgamma(0.5))
    except OverflowError:  # for H below about 0.00332
        raise NumericalError(f"e_H = E|Z|^(1/H) overflows a double at H = {hurst}") from None
