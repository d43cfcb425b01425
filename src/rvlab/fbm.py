"""Exact sampling of fractional Brownian motion on uniform grids.

Two exact-in-law samplers are provided: a Cholesky factorization of the
covariance matrix (O(n^3), any grid size up to a guard) and a circulant
embedding of the stationary increment process (O(n log n), the default for
experiments).  Both are driven by per-replication Philox streams derived
from a :class:`~rvlab.core.SeedSpec`, so a path is a pure function of
(master_seed, replication_index) regardless of how replications are
scheduled; :func:`covariance_check_experiment` tests both against R_H.
"""

from __future__ import annotations

import functools
import logging
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np
import numpy.fft  # numpy loads it lazily; here, not in every forked pool worker

from .core import MultiPath, SeedSpec, UniformGrid, check_hurst, check_path_size
from .errors import ConfigError, DomainError, EmbeddingError, FactorizationError, NumericalError
from .parallel import _blas_threads, replication_map
from .report import Report

if TYPE_CHECKING:
    from .harness import ExperimentConfig

__all__ = [
    "covariance",
    "fgn_autocovariance",
    "sample_fbm_cholesky",
    "sample_fbm_circulant",
    "sample_fbm_multi",
    "PathJob",
    "covariance_check_experiment",
    "SAMPLERS",
    "CHOLESKY_MAX_N",
]

log = logging.getLogger(__name__)

CHOLESKY_MAX_N = 4096

# Registered sampler methods: "circulant" is sample_fbm_circulant, "cholesky"
# sample_fbm_cholesky.  sample_fbm_multi looks the function up when called,
# so a rebinding of either module name reaches every sample.
SAMPLERS = ("circulant", "cholesky")

# Relative eigenvalue tolerance of the circulant embedding: eigenvalues in
# [-tol * max_eig, 0) are clamped to zero (the embedding is provably
# nonnegative for fGn, so anything below is a bug or pathological input).
EIG_REL_TOL = 1e-10

_CHOLESKY_JITTER = 1e-12


def covariance(hurst: float, t, s):
    """Covariance R_H(t, s) = (t^{2H} + s^{2H} - |t-s|^{2H}) / 2 of fBm.

    Parameters
    ----------
    hurst : float
        Hurst exponent in (0, 1).
    t, s : float or array_like
        Nonnegative times; broadcast together.

    Returns
    -------
    float or np.ndarray
        R_H(t, s).  Symmetric in (t, s); R_H(t, t) = t^{2H}.
    """
    h = check_hurst(hurst)
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0) or np.any(s < 0):
        raise DomainError("covariance is defined for nonnegative times")
    out = 0.5 * (t ** (2 * h) + s ** (2 * h) - np.abs(t - s) ** (2 * h))
    return float(out) if out.ndim == 0 else out


def fgn_autocovariance(hurst: float, lag, dt: float):
    """Autocovariance of fractional Gaussian noise at integer lag(s).

    For increments X_i = B_{(i+1)dt} - B_{i dt} the stationary autocovariance
    is gamma(k) = (|k+1|^{2H} + |k-1|^{2H} - 2|k|^{2H}) dt^{2H} / 2,
    independent of i.  ``lag`` is an integer or an array of them; the
    circulant sampler's embedding row is this function at lags 0..n.
    """
    h = check_hurst(hurst)
    k = np.asarray(lag, dtype=float)
    if np.any(k < 0):
        raise DomainError("lag must be nonnegative")
    if not dt > 0:
        raise DomainError("dt must be positive")
    gamma = 0.5 * ((k + 1) ** (2 * h) + np.abs(k - 1) ** (2 * h) - 2 * k ** (2 * h))
    gamma *= dt ** (2 * h)
    return float(gamma) if gamma.ndim == 0 else gamma


@functools.lru_cache(maxsize=16)
def _covariance_cholesky(h: float, horizon: float, n: int) -> np.ndarray:
    """Lower Cholesky factor of [R_H(t_i, t_j)]_{i,j=1..n}, jittered once."""
    t = np.arange(1, n + 1) * (horizon / n)
    sigma = covariance(h, t[:, None], t[None, :])
    # one BLAS thread, as in pool workers: LAPACK gives other bits at other
    # thread counts, and every process must sample from the same factor
    previous = _blas_threads(1)
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        jitter = _CHOLESKY_JITTER * np.trace(sigma) / n
        log.warning(
            "covariance factorization failed at n=%d, H=%g; retrying with "
            "diagonal jitter %.3e", n, h, jitter,
        )
        try:
            chol = np.linalg.cholesky(sigma + jitter * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                f"covariance matrix for H={h}, n={n} is not positive definite "
                f"even after jitter {jitter:.3e}"
            ) from exc
    finally:
        _blas_threads(previous)
    chol.setflags(write=False)
    return chol


def sample_fbm_cholesky(
    hurst: float, grid: UniformGrid, seed: SeedSpec, component: int = 0
) -> np.ndarray:
    """Exact fBm sample via Cholesky factorization of the covariance matrix.

    Returns the values at the n+1 nodes, 0 at node 0, with Gram matrix
    R_H(t_i, t_j) on the nonzero nodes, deterministic given ``seed`` and
    ``component`` (the sub-stream).
    Guarded to n <= 4096 (the factorization is O(n^3)).
    """
    h = check_hurst(hurst)
    if grid.n > CHOLESKY_MAX_N:
        raise DomainError(
            f"Cholesky sampler is guarded to n <= {CHOLESKY_MAX_N}; "
            f"got n = {grid.n} (use the circulant sampler)"
        )
    chol = _covariance_cholesky(h, grid.horizon, grid.n)
    z = seed.stream(component=component).standard_normal(grid.n)
    return np.concatenate([[0.0], chol @ z])


@functools.lru_cache(maxsize=16)
def _embedding_sqrt(h: float, horizon: float, n: int) -> np.ndarray:
    """sqrt of the circulant eigenvalues of the length-2n fGn embedding."""
    lam = _embedding_eigenvalues(h, horizon, n)
    max_eig = lam.max()
    tol = EIG_REL_TOL * max_eig
    min_eig = lam.min()
    if min_eig < -tol:
        raise EmbeddingError(
            f"circulant embedding for H={h}, n={n} has eigenvalue "
            f"{min_eig:.6e} below -tol ({-tol:.6e})",
            min_eigenvalue=float(min_eig),
        )
    if min_eig < 0:
        log.warning(
            "clamping %d slightly negative circulant eigenvalues "
            "(min %.3e) to zero for H=%g, n=%d",
            int((lam < 0).sum()), min_eig, h, n,
        )
        lam = np.maximum(lam, 0.0)
    root = np.sqrt(lam)
    root.setflags(write=False)
    return root


def _embedding_eigenvalues(h: float, horizon: float, n: int) -> np.ndarray:
    gamma = fgn_autocovariance(h, np.arange(n + 1), horizon / n)
    if n == 1:
        row = gamma
    else:
        row = np.concatenate([gamma, gamma[-2:0:-1]])
    return np.fft.fft(row).real


def sample_fbm_circulant(
    hurst: float, grid: UniformGrid, seed: SeedSpec, component: int = 0
) -> np.ndarray:
    """Exact fBm sample via FFT circulant embedding of the increments.

    Generates stationary fractional Gaussian noise from the 2n-point
    circulant embedding, then cumulative-sums to the values at the n+1
    nodes.  Same law as the Cholesky sampler, O(n log n), bit-reproducible
    for a given seed across any number of workers.
    """
    n = grid.n
    root = _embedding_sqrt(check_hurst(hurst), grid.horizon, n)
    gen = seed.stream(component=component)
    a = gen.standard_normal(n + 1)
    b = gen.standard_normal(max(n - 1, 0))
    m = 2 * n
    w = np.zeros(m, dtype=complex)
    w[0] = a[0] * root[0]
    w[n] = a[n] * root[n]
    if n > 1:
        w[1:n] = (a[1:n] + 1j * b) * (root[1:n] / np.sqrt(2.0))
        w[n + 1:] = np.conj(w[1:n][::-1])
    fgn = np.fft.ifft(w).real[:n] * np.sqrt(m)
    return np.concatenate([[0.0], np.cumsum(fgn)])


def sample_fbm_multi(
    hurst: float,
    d: int,
    grid: UniformGrid,
    seed: SeedSpec,
    method: str = "circulant",
) -> MultiPath:
    """Sample d independent fBm components on a shared grid.

    Component j is drawn from the 1-dim sampler with the sub-stream derived
    from (seed, j); d = 1 therefore reproduces the 1-dim sampler bitwise.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    check_path_size(grid.n, d)
    if method not in SAMPLERS:
        raise ConfigError(f"unknown sampler method {method!r}; registered: {list(SAMPLERS)}")
    sample = sample_fbm_cholesky if method == "cholesky" else sample_fbm_circulant
    cols = np.empty((grid.n + 1, d))
    for j in range(d):
        cols[:, j] = sample(hurst, grid, seed, component=j)
    return MultiPath(grid, cols)


class PathJob(NamedTuple):
    """What replication r of an experiment draws: d independent fBm
    components on the n-cell grid of [0, horizon] from ``seed.replicate(r)``,
    by circulant embedding unless ``method`` names another sampler.
    :meth:`map` is the one place that draws replications."""

    hurst: float
    dimension: int
    horizon: float
    n: int
    seed: SeedSpec
    method: str = "circulant"

    def sample(self, r: int) -> MultiPath:
        grid = UniformGrid(self.horizon, self.n)
        return sample_fbm_multi(
            self.hurst, self.dimension, grid, self.seed.replicate(r), self.method
        )

    def map(
        self, statistic: Callable, replications: int, workers: int = 1,
        heads: Sequence[Callable] = (),
    ) -> list:
        """``statistic(self.sample(r))`` for r = 0 .. replications-1, in index
        order, over ``workers`` processes, led by the results of ``heads`` (see
        :func:`rvlab.parallel.replication_map`); all must be picklable."""
        job = functools.partial(_statistic_of_sample, statistic, self)
        return replication_map(job, replications, workers, heads)


def _statistic_of_sample(statistic: Callable, paths: PathJob, r: int):
    return statistic(paths.sample(r))


def _cov_rep(path: MultiPath) -> np.ndarray:
    return path.values[1:, 0]


def covariance_check_experiment(config: ExperimentConfig, workers: int) -> Report:
    """Entrywise z-scores of empirical vs exact covariance for both samplers.

    Uses the known-mean second-moment estimator, whose exact standard error
    per entry is sqrt((R_ii R_jj + R_ij^2) / M); sampler agreement compares
    the two independent estimates against sqrt(2) times that, on the one
    entry of grid_sizes.
    """
    if len(config.grid_sizes) != 1:
        raise ConfigError(f"covariance-check takes one grid size, got {list(config.grid_sizes)}")
    h = config.hurst
    n = config.grid_sizes[0]
    m = config.replications
    t = np.arange(1, n + 1) * (config.horizon / n)
    with np.errstate(over="ignore", invalid="ignore"):
        exact = covariance(h, t[:, None], t[None, :])
        se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / m)
    # a z-score of 0 or inf decides nothing; a finite R_H^2 keeps x.T @ x finite too
    if not np.all((se > 0) & (se < np.inf)):
        raise NumericalError(f"the standard errors of R_H at horizon {config.horizon} "
                             "are not positive finite doubles")
    threshold = config.param("max_z", "tolerances")
    empirical = {}
    for arm, method in enumerate(("cholesky", "circulant")):
        paths = PathJob(h, 1, config.horizon, n, SeedSpec(config.master_seed, arm * m), method)
        x = np.asarray(paths.map(_cov_rep, m, workers))
        empirical[method] = x.T @ x / m
    rows = []
    flags = {}
    for method in ("cholesky", "circulant"):
        max_z = float(np.max(np.abs(empirical[method] - exact) / se))
        ok = max_z <= threshold
        rows.append((f"{method}_vs_exact", max_z, n * n, threshold, ok))
        flags[f"{method}_matches_covariance"] = ok
    diff_z = float(
        np.max(np.abs(empirical["cholesky"] - empirical["circulant"]) / (np.sqrt(2) * se))
    )
    ok = diff_z <= threshold
    rows.append(("cholesky_vs_circulant", diff_z, n * n, threshold, ok))
    flags["samplers_agree"] = ok
    return Report(
        columns=("check", "max_abs_z", "entries", "threshold", "ok"),
        rows=rows,
        flags=flags,
        meta={"grid_n": n},
    )
