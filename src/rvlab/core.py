"""Core value types: the Hurst parameter check, uniform grids, the sampled
d-dimensional path and reproducible seed derivation, plus the singular
time-weight integral and the Ito-type representation built on it, which every
transform of a sampled path (divergence integrals, Theta) goes through.

A scalar process (a divergence integral, Theta) is a plain array of its
values at the grid nodes.  The sampled path is immutable and wraps a
read-only numpy array, so it can be shared freely across worker processes
and threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
    "UniformGrid",
    "MultiPath",
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


# The largest grid size numpy can sample on: an array may hold at most the
# largest intp in bytes, and the circulant sampler's largest array is its
# 2n-point complex128 embedding row (16 bytes a point).
MAX_GRID_SIZE = np.iinfo(np.intp).max // 32
# A d-dimensional path is an (n + 1) x d float64 array: 8 bytes an entry.
MAX_PATH_ENTRIES = np.iinfo(np.intp).max // 8


def check_path_size(n: int, d: int) -> None:
    """Reject a d-dimensional path on n cells that numpy cannot hold."""
    if (n + 1) * d > MAX_PATH_ENTRIES:
        raise DomainError(
            f"a path of {n + 1} nodes in dimension {d} must have at most {MAX_PATH_ENTRIES} "
            "entries: numpy cannot hold a larger float64 array"
        )


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
        if self.n > MAX_GRID_SIZE:  # also keeps horizon / n from an OverflowError
            raise DomainError(
                f"grid size must not exceed {MAX_GRID_SIZE}: numpy cannot hold the "
                "circulant sampler's 2n-point complex embedding row beyond it"
            )
        if not self.horizon / self.n > 0:
            raise DomainError(
                f"the cell width of horizon {self.horizon} over {self.n} cells underflows to 0"
            )

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

    def index_of(self, t: float) -> int:
        """Index of the node within 1e-9 cell widths of ``t`` (node 0 only for
        t = 0); DomainError if t is off-grid."""
        i = int(round(t / self.dt))
        tol = 1e-9 * self.dt if i else 0.0
        if not (0 <= i <= self.n) or abs(t - self.node(i)) > tol:
            raise DomainError(f"t = {t} is not a node of {self}")
        return i


@dataclass(frozen=True)
class MultiPath:
    """A d-dimensional process sampled on a uniform grid, one column per
    component."""

    grid: UniformGrid
    values: np.ndarray  # shape (n+1, d)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
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


# Stream lanes keep unrelated consumers of the same replication independent:
# lane 0 carries path noise (the component is the path's), lane 1 the xi
# draws of nu-integral Monte Carlo (the component is the check's task).
LANE_PATH = 0
LANE_XI = 1
# Each lane's bit generator, by its name in numpy.random (which numpy loads
# lazily, see rvlab.harness).  Paths use counter-based Philox, whose streams
# can be advanced; xi streams are one per task and never advanced, so they
# use SFC64, whose normals take about 70% of Philox's time.
_LANE_BIT_GENERATORS = {LANE_PATH: "Philox", LANE_XI: "SFC64"}


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible stream derivation from (master_seed, replication_index).

    Streams are pure functions of (master_seed, replication_index, lane,
    component): the derivation hashes the tuple through numpy's
    ``SeedSequence`` and feeds the lane's bit generator (Philox for paths,
    SFC64 for xi), so results never depend on scheduling or worker count.
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
        bit_generator = getattr(np.random, _LANE_BIT_GENERATORS[lane])
        return np.random.Generator(bit_generator(seq))

    def replicate(self, index: int) -> "SeedSpec":
        """The spec for replication ``base + index`` of the same master seed."""
        return SeedSpec(self.master_seed, self.replication_index + index)


@functools.lru_cache(maxsize=16)
def _cell_weights(grid: UniformGrid, h: float) -> np.ndarray:
    """Exact cell integrals of s^{2H-1}: (t_{i+1}^{2H} - t_i^{2H}) / (2H),
    read-only and computed once per (grid, H); NumericalError if one is not
    a finite double, as at an H so small that 2H underflows."""
    nodes = grid.nodes()
    with np.errstate(all="ignore"):  # caught below as non-finite
        weights = (nodes[1:] ** (2 * h) - nodes[:-1] ** (2 * h)) / (2 * h)
    if not np.all(np.isfinite(weights)):
        raise NumericalError(
            f"the cell integrals of s^(2H-1) are not finite doubles at H = {h!r}"
        )
    weights.setflags(write=False)
    return weights


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
) -> np.ndarray:
    """X_t = f_t - f_0 - weight int_0^t g(s) s^{2H-1} ds at every node, X_0 = 0.

    The Ito-type formula F(B_t) - F(0) - H int_0^t (Laplacian F)(B_s) s^{2H-1} ds
    behind both representations: f = F(B), g = Laplacian F(B) and weight H
    for divergence integrals; f = R, g = 1/R and weight H (d - 1) for Theta.
    """
    values = f_vals - f_vals[0] - weight * weighted_cumulative(g_vals, grid, h)
    values[0] = 0.0
    return values


def write_path_csv(path: MultiPath, fh: TextIO) -> None:
    """Serialize a path as CSV: ``t,value`` at d = 1, else ``t,v1,...,vd``.

    Values are written with shortest round-trip ``repr`` (numpy scalars are
    unwrapped first, whose repr is not parseable).
    """
    d = path.dimension
    names = ["value"] if d == 1 else [f"v{j + 1}" for j in range(d)]
    fh.write("t," + ",".join(names) + "\n")
    for ti, row in zip(path.grid.nodes(), path.values):
        fh.write(f"{float(ti)!r}," + ",".join(repr(float(v)) for v in row) + "\n")
