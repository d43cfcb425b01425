"""q-variation statistics and the Gaussian moment constant e_H.

The q-variation of a sampled path is the finite sum of q-th powers of
absolute increments over the path's own grid.  For fBm with q = 1/H it
converges in L^1 to e_H * T, where e_H is the absolute 1/H-moment of a
standard Gaussian; :func:`rvlab.ito.variation_experiment` measures that
convergence grid by grid.  Both are plain floats.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import gammaln

from .core import HurstParam, RealPath, as_hurst
from .errors import DomainError

__all__ = [
    "variation_Vnq",
    "e_H",
]


def variation_Vnq(path: RealPath, q: float) -> float:
    """q-variation V_n^q(X) = sum_i |X_{t_{i+1}} - X_{t_i}|^q.

    The sum runs left to right with compensated summation so the value is
    identical no matter how replications were scheduled.
    """
    if not q > 0:
        raise DomainError(f"variation exponent must be positive, got {q}")
    return math.fsum(np.abs(path.increments()) ** q)


@functools.lru_cache(maxsize=64)
def _e_h_value(h: float) -> float:
    p = 1.0 / h
    return float(np.exp(0.5 * p * np.log(2.0) + gammaln(0.5 * (p + 1)) - gammaln(0.5)))


def e_H(hurst: HurstParam | float) -> float:
    """e_H = E|Z|^{1/H} = 2^{1/(2H)} Gamma((1/H + 1)/2) / Gamma(1/2), via log-Gamma."""
    return _e_h_value(as_hurst(hurst).h)
