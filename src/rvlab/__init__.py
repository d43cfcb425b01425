"""rvlab: rough-variation laboratory.

Exact simulation of fractional Brownian motion (H < 1/2 focus), Volterra
kernel numerics, divergence integrals through closed-form representations,
q-variation statistics, the fractional Bessel process, and a deterministic
Monte Carlo experiment harness with a CLI.
"""

__version__ = "0.1.0"

from .core import (
    MultiPath,
    SeedSpec,
    UniformGrid,
)

__all__ = [
    "__version__",
    "MultiPath",
    "SeedSpec",
    "UniformGrid",
]
