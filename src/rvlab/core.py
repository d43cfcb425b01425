"""Core value types: the Hurst parameter check, uniform grids, sampled
paths, step functions and reproducible seed derivation, plus the singular
time-weight integral and the Ito-type representation built on it, which every
transform of a sampled path (divergence integrals, Theta) goes through.

Everything here is immutable; paths wrap read-only numpy arrays so they can
be shared freely across worker processes and threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import DomainError

__all__ = [
    "UniformGrid",
    "RealPath",
    "MultiPath",
    "StepFunction",
    "SeedSpec",
    "check_hurst",
    "ito_representation",
    "weighted_cumulative",
    "write_path_csv",
]


def check_hurst(h: float, rough: str | None = None) -> float:
    """The Hurst exponent, the central model parameter, as a float in (0, 1).

    Operations built on the Volterra kernel pass their name as ``rough``
    and additionally require h < 1/2.
    """
    h = float(h)
    if not 0.0 < h < 1.0:
        raise DomainError(f"Hurst parameter must lie in (0, 1), got {h}")
    if rough is not None and not h < 0.5:
        raise DomainError(f"{rough} requires H < 1/2, got H = {h}")
    return h


@dataclass(frozen=True)
class UniformGrid:
    """Uniform partition t_i = i T / n of [0, T] with n cells (n+1 nodes)."""

    horizon: float
    n: int

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")
        if self.n < 1:
            raise DomainError(f"grid size must be >= 1, got {self.n}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n

    def nodes(self) -> np.ndarray:
        """All n+1 nodes 0 = t_0 < t_1 < ... < t_n = T."""
        t = np.arange(self.n + 1, dtype=float) * (self.horizon / self.n)
        t[-1] = self.horizon
        t.setflags(write=False)
        return t

    def node(self, i: int) -> float:
        if not 0 <= i <= self.n:
            raise DomainError(f"node index {i} outside 0..{self.n}")
        return self.horizon if i == self.n else i * self.horizon / self.n

    def index_of(self, t: float, rtol: float = 1e-9) -> int:
        """Index of the node equal to ``t``; DomainError if t is off-grid."""
        i = int(round(t / self.dt))
        if not (0 <= i <= self.n) or abs(t - self.node(i)) > rtol * max(self.horizon, 1.0):
            raise DomainError(f"t = {t} is not a node of {self}")
        return i


def _frozen(values: np.ndarray) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RealPath:
    """A real-valued process sampled at the nodes of a uniform grid.

    Every process this library produces (fBm, divergence integrals, Theta)
    starts at zero; the constructor tolerates shifted paths so that
    level-invariant statistics can be exercised on them.
    """

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        if self.values.ndim != 1 or self.values.shape[0] != self.grid.n + 1:
            raise DomainError(
                f"path needs {self.grid.n + 1} values, got shape {self.values.shape}"
            )

    def increments(self) -> np.ndarray:
        return np.diff(self.values)


@dataclass(frozen=True)
class MultiPath:
    """A d-dimensional process sampled on a uniform grid, one column per
    component."""

    grid: UniformGrid
    values: np.ndarray  # shape (n+1, d)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.n + 1:
            raise DomainError(
                f"multipath needs shape ({self.grid.n + 1}, d), got {self.values.shape}"
            )
        if self.dimension < 1:
            raise DomainError("dimension must be >= 1")
        if np.any(self.values[0] != 0.0):
            raise DomainError("paths start at zero; row 0 must vanish")

    @property
    def dimension(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on [0, T): value a_j on [t_j, t_{j+1})."""

    grid: UniformGrid
    coefficients: np.ndarray  # length n

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _frozen(self.coefficients))
        if self.coefficients.ndim != 1 or self.coefficients.shape[0] != self.grid.n:
            raise DomainError(
                f"step function needs {self.grid.n} cell values, got "
                f"shape {self.coefficients.shape}"
            )

    @classmethod
    def indicator(cls, grid: UniformGrid, k: int) -> "StepFunction":
        """The indicator of [0, t_k), exactly representable on the grid."""
        if not 0 <= k <= grid.n:
            raise DomainError(f"indicator endpoint index {k} outside 0..{grid.n}")
        a = np.zeros(grid.n)
        a[:k] = 1.0
        return cls(grid, a)


# Stream lanes keep unrelated consumers of the same replication independent:
# lane 0 carries path noise (per component), lane 1 the xi draws of
# nu-integral Monte Carlo.
LANE_PATH = 0
LANE_XI = 1


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible stream derivation from (master_seed, replication_index).

    Streams are pure functions of (master_seed, replication_index, lane,
    component): the derivation hashes the tuple through numpy's
    ``SeedSequence`` and feeds a counter-based Philox generator, so results
    never depend on scheduling or worker count.
    """

    master_seed: int
    replication_index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2**64:
            raise DomainError("master_seed must be an unsigned 64-bit integer")
        if self.replication_index < 0:
            raise DomainError("replication_index must be nonnegative")

    def stream(self, component: int = 0, lane: int = LANE_PATH) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=int(self.master_seed),
            spawn_key=(int(self.replication_index), int(lane), int(component)),
        )
        return np.random.Generator(np.random.Philox(seq))

    def replicate(self, index: int) -> "SeedSpec":
        """The spec for replication ``base + index`` of the same master seed."""
        return SeedSpec(self.master_seed, self.replication_index + index)


def _cell_weights(grid: UniformGrid, h: float) -> np.ndarray:
    """Exact cell integrals of s^{2H-1}: (t_{i+1}^{2H} - t_i^{2H}) / (2H)."""
    nodes = grid.nodes()
    return (nodes[1:] ** (2 * h) - nodes[:-1] ** (2 * h)) / (2 * h)


def weighted_cumulative(values: np.ndarray, grid: UniformGrid, h: float) -> np.ndarray:
    """int_0^{t_k} g(s) s^{2H-1} ds at every node k, from right-endpoint g samples.

    The singular weight is integrated exactly per cell against the
    piecewise-constant extension of g's right-endpoint node values, so g(0)
    (``values[0]``) is never used.
    """
    weights = _cell_weights(grid, h)
    out = np.empty(grid.n + 1)
    out[0] = 0.0
    np.cumsum(values[1:] * weights, out=out[1:])
    return out


def ito_representation(
    f_vals: np.ndarray, weight: float, g_vals: np.ndarray, grid: UniformGrid, h: float
) -> RealPath:
    """X_t = f_t - f_0 - weight int_0^t g(s) s^{2H-1} ds at every node, X_0 = 0.

    The Ito-type formula F(B_t) - F(0) - H int_0^t (Laplacian F)(B_s) s^{2H-1} ds
    behind both representations: f = F(B), g = Laplacian F(B) and weight H
    for divergence integrals; f = R, g = 1/R and weight H (d - 1) for Theta.
    """
    values = f_vals - f_vals[0] - weight * weighted_cumulative(g_vals, grid, h)
    values[0] = 0.0
    return RealPath(grid, values)


def write_path_csv(path: "RealPath | MultiPath", fh: TextIO) -> None:
    """Serialize a path as CSV: ``t,value`` or ``t,v1,...,vd``.

    Values are written with shortest round-trip ``repr`` (numpy scalars are
    unwrapped first, whose repr is not parseable).
    """
    t = path.grid.nodes()
    if isinstance(path, RealPath):
        fh.write("t,value\n")
        for ti, vi in zip(t, path.values):
            fh.write(f"{float(ti)!r},{float(vi)!r}\n")
    else:
        d = path.dimension
        fh.write("t," + ",".join(f"v{j + 1}" for j in range(d)) + "\n")
        for i, ti in enumerate(t):
            fh.write(
                f"{float(ti)!r},"
                + ",".join(repr(float(v)) for v in path.values[i])
                + "\n"
            )
