"""q-variation statistics and the Gaussian moment constant e_H.

The q-variation of a sampled path is the finite sum of q-th powers of
absolute increments over the path's own grid.  For fBm with q = 1/H it
converges in L^1 to e_H * T, where e_H is the absolute 1/H-moment of a
standard Gaussian; :func:`rvlab.ito.variation_experiment` measures that
convergence grid by grid.  Both are plain floats.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .core import RealPath, check_hurst
from .errors import DomainError, NumericalError

__all__ = [
    "variation_Vnq",
    "e_H",
]


def variation_Vnq(path: RealPath, q: float) -> float:
    """q-variation V_n^q(X) = sum_i |X_{t_{i+1}} - X_{t_i}|^q.

    The sum runs left to right with compensated summation so the value is
    identical no matter how replications were scheduled.  A sum that
    overflows is a numerical failure, not a statistic.
    """
    if not q > 0:
        raise DomainError(f"variation exponent must be positive, got {q}")
    with np.errstate(over="ignore"):
        powers = np.abs(path.increments()) ** q
    try:
        total = math.fsum(powers)
    except OverflowError:  # fsum's partial sums of finite terms passed the largest double
        total = math.inf
    if not math.isfinite(total):
        raise NumericalError(f"V_n^{q} of the path is non-finite: its increments overflow")
    return total


def e_H(hurst: float) -> float:
    """e_H = E|Z|^{1/H} = 2^{1/(2H)} Gamma((1/H + 1)/2) / Gamma(1/2), via log-Gamma."""
    p = 1.0 / check_hurst(hurst)
    return float(np.exp(0.5 * p * np.log(2.0) + gammaln(0.5 * (p + 1)) - gammaln(0.5)))
