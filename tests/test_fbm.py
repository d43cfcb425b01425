"""Statistical and exact tests for the fBm samplers and covariance functions."""

import numpy as np
import pytest

from rvlab.core import SeedSpec, UniformGrid
from rvlab.errors import ConfigError, DomainError, EmbeddingError, FactorizationError
from rvlab.fbm import (
    CHOLESKY_MAX_N,
    SAMPLERS,
    PathJob,
    circulant_eigenvalues,
    covariance,
    fgn_autocovariance,
    sample_fbm_cholesky,
    sample_fbm_circulant,
    sample_fbm_multi,
)


class TestCovariance:
    def test_brownian_case_is_min(self):
        assert covariance(0.5, 1.0, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_is_power_law(self):
        assert covariance(0.3, 1.5, 1.5) == pytest.approx(1.5**0.6, rel=1e-15)

    def test_rough_off_diagonal_value(self):
        # 0.5 * (2^0.5 + 1 - 1) = sqrt(2)/2
        assert covariance(0.25, 2.0, 1.0) == pytest.approx(0.7071067811865476, rel=1e-14)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = rng.uniform(0.05, 0.95)
            t, s = rng.uniform(0, 3, size=2)
            assert covariance(h, t, s) == covariance(h, s, t)

    def test_rejects_negative_times(self):
        with pytest.raises(DomainError):
            covariance(0.3, -1.0, 1.0)


class TestFgnAutocovariance:
    def test_lag_zero_is_increment_variance(self):
        for h, dt in [(0.3, 0.1), (0.45, 0.5), (0.7, 1.0)]:
            assert fgn_autocovariance(h, 0, dt) == pytest.approx(dt ** (2 * h), rel=1e-14)

    def test_brownian_increments_uncorrelated(self):
        assert fgn_autocovariance(0.5, 1, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_rough_lag_one_is_negative(self):
        expected = 0.5 * (2**0.6 - 2)  # direct evaluation of the formula
        got = fgn_autocovariance(0.3, 1, 1.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got < 0

    def test_all_lags_negative_for_rough_h(self):
        assert all(fgn_autocovariance(0.3, k, 0.25) < 0 for k in range(1, 50))

    def test_lag_array_matches_scalar_lags(self):
        lags = np.arange(40)
        gamma = fgn_autocovariance(0.3, lags, 0.25)
        assert gamma.shape == (40,)
        expected = [fgn_autocovariance(0.3, int(k), 0.25) for k in lags]
        assert np.allclose(gamma, expected, rtol=1e-14, atol=0)

    def test_negative_lag_rejected(self):
        with pytest.raises(DomainError):
            fgn_autocovariance(0.3, -1, 1.0)
        with pytest.raises(DomainError):
            fgn_autocovariance(0.3, np.array([0, 1, -2]), 1.0)

    @pytest.mark.parametrize("h", [0.2, 0.3, 0.45, 0.6])
    def test_lag_sum_telescopes_to_total_variance(self, h):
        # Var(B_T) = sum_{i,j} gamma(|i-j|) must equal T^{2H} identically.
        n, horizon = 64, 2.0
        dt = horizon / n
        gamma = fgn_autocovariance(h, np.arange(n), dt)
        total = n * gamma[0] + 2 * np.sum((n - np.arange(1, n)) * gamma[1:])
        assert total == pytest.approx(horizon ** (2 * h), rel=1e-10)


class TestCholeskySampler:
    def test_single_step_variance(self):
        grid = UniformGrid(1.5, 1)
        m = 10_000
        draws = np.array(
            [sample_fbm_cholesky(0.35, grid, SeedSpec(5, r)).values[1] for r in range(m)]
        )
        assert draws.var() == pytest.approx(1.5**0.7, rel=0.05)

    def test_brownian_covariance_midpoint(self):
        grid = UniformGrid(1.0, 2)
        m = 10_000
        paths = np.array(
            [sample_fbm_cholesky(0.5, grid, SeedSpec(8, r)).values[1:] for r in range(m)]
        )
        emp = paths[:, 0] @ paths[:, 1] / m
        se = np.sqrt((0.5 * 1.0 + 0.5**2) / m)
        assert abs(emp - 0.5) < 3 * se

    def test_empirical_covariance_matches_exact(self):
        h, n, m = 0.3, 16, 10_000
        grid = UniformGrid(1.0, n)
        paths = np.array(
            [sample_fbm_cholesky(h, grid, SeedSpec(3, r)).values[1:] for r in range(m)]
        )
        t = grid.nodes()[1:]
        exact = covariance(h, t[:, None], t[None, :])
        se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / m)
        max_z = np.max(np.abs(paths.T @ paths / m - exact) / se)
        assert max_z < 3, f"max |z| = {max_z:.2f}"

    def test_guard_on_large_n(self):
        with pytest.raises(DomainError):
            sample_fbm_cholesky(0.3, UniformGrid(1.0, CHOLESKY_MAX_N + 1), SeedSpec(0))

    def test_factorization_error_after_jitter(self, monkeypatch):
        from rvlab import fbm as fbm_mod

        def always_fails(_matrix):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", always_fails)
        fbm_mod._covariance_cholesky.cache_clear()
        with pytest.raises(FactorizationError):
            sample_fbm_cholesky(0.3, UniformGrid(1.0, 4), SeedSpec(0))
        fbm_mod._covariance_cholesky.cache_clear()


class TestCirculantSampler:
    def test_embedding_eigenvalues_nonnegative(self):
        lam = circulant_eigenvalues(0.3, UniformGrid(1.0, 1024))
        assert lam.min() >= 0.0

    @pytest.mark.parametrize("h", [0.1, 0.25, 0.45, 0.5, 0.75])
    def test_embedding_valid_across_h(self, h):
        lam = circulant_eigenvalues(h, UniformGrid(1.0, 256))
        assert lam.min() > -1e-10 * lam.max()

    def test_brownian_lag_one_correlation(self):
        # Pooled lag-1 correlation over all paths: |rho| < 3 / sqrt(M n).
        h, n, m = 0.5, 64, 300
        grid = UniformGrid(1.0, n)
        left, right = [], []
        for r in range(m):
            inc = sample_fbm_circulant(h, grid, SeedSpec(12, r)).increments()
            left.append(inc[:-1])
            right.append(inc[1:])
        x = np.concatenate(left)
        y = np.concatenate(right)
        rho = (x @ y) / np.sqrt((x @ x) * (y @ y))
        assert abs(rho) < 3 / np.sqrt(m * n)

    def test_matches_cholesky_in_law(self):
        # Sampler-vs-sampler oracle: independent estimates of the covariance
        # matrix from the two samplers agree entrywise within 3 combined s.e.
        h, n, m = 0.35, 256, 10_000
        grid = UniformGrid(1.0, n)
        a = np.array(
            [sample_fbm_circulant(h, grid, SeedSpec(22, r)).values[1:] for r in range(m)]
        )
        b = np.array(
            [sample_fbm_cholesky(h, grid, SeedSpec(22, m + r)).values[1:] for r in range(m)]
        )
        t = grid.nodes()[1:]
        exact = covariance(h, t[:, None], t[None, :])
        se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / m)
        max_z = np.max(np.abs(a.T @ a / m - b.T @ b / m) / (np.sqrt(2) * se))
        assert max_z < 3, f"sampler disagreement max |z| = {max_z:.2f}"

    def test_single_cell_grid(self):
        path = sample_fbm_circulant(0.3, UniformGrid(1.0, 1), SeedSpec(0))
        assert path.values.shape == (2,)
        assert path.values[0] == 0.0

    def test_deterministic_given_seed(self):
        grid = UniformGrid(1.0, 128)
        a = sample_fbm_circulant(0.3, grid, SeedSpec(99, 5))
        b = sample_fbm_circulant(0.3, grid, SeedSpec(99, 5))
        c = sample_fbm_circulant(0.3, grid, SeedSpec(99, 6))
        assert a.values.tobytes() == b.values.tobytes()
        assert a.values.tobytes() != c.values.tobytes()

    def test_embedding_error_reports_minimum(self, monkeypatch):
        from rvlab import fbm as fbm_mod

        monkeypatch.setattr(
            fbm_mod, "_embedding_eigenvalues", lambda h, T, n: np.array([1.0, -0.5, 1.0, 1.0])
        )
        fbm_mod._embedding_sqrt.cache_clear()
        with pytest.raises(EmbeddingError) as err:
            sample_fbm_circulant(0.3, UniformGrid(1.0, 2), SeedSpec(0))
        assert err.value.min_eigenvalue == -0.5
        fbm_mod._embedding_sqrt.cache_clear()


class TestIncrementLaw:
    def test_increment_variance_lattice(self):
        # E|B_t - B_s|^2 = |t - s|^{2H} across node pairs and both samplers.
        m, n = 10_000, 8
        grid = UniformGrid(1.0, n)
        for h, sampler, seed in [
            (0.3, sample_fbm_circulant, 31),
            (0.45, sample_fbm_cholesky, 32),
            (0.7, sample_fbm_circulant, 33),
        ]:
            paths = np.array(
                [sampler(h, grid, SeedSpec(seed, r)).values for r in range(m)]
            )
            t = grid.nodes()
            for i, j in [(0, 4), (2, 6), (3, 8)]:
                emp = np.mean((paths[:, j] - paths[:, i]) ** 2)
                expected = abs(t[j] - t[i]) ** (2 * h)
                assert emp == pytest.approx(expected, rel=0.05), (h, i, j)

    def test_sampler_self_similarity(self):
        # Rescaled horizon-aT paths have the horizon-T marginal variances.
        h, a, n, m = 0.4, 4.0, 16, 4000
        base = UniformGrid(1.0, n)
        wide = UniformGrid(a, n)
        var_base = np.var(
            [sample_fbm_circulant(h, base, SeedSpec(41, r)).values[n // 2] for r in range(m)]
        )
        var_scaled = np.var(
            [
                a ** (-h) * sample_fbm_circulant(h, wide, SeedSpec(42, r)).values[n // 2]
                for r in range(m)
            ]
        )
        se = var_base * np.sqrt(2.0 / (m - 1))
        assert abs(var_base - var_scaled) < 3 * np.sqrt(2) * se


class TestMultiSampler:
    def test_components_uncorrelated(self):
        h, m = 0.45, 4000
        grid = UniformGrid(1.0, 4)
        terminal = np.array(
            [sample_fbm_multi(h, 2, grid, SeedSpec(51, r)).values[-1] for r in range(m)]
        )
        emp = terminal[:, 0] @ terminal[:, 1] / m
        se = np.sqrt(1.0 / m)  # Var(B1_T B2_T) = T^{4H} = 1 at T = 1
        assert abs(emp) < 3 * se

    def test_squared_norm_mean(self):
        h, d, m = 0.45, 3, 10_000
        grid = UniformGrid(1.0, 4)
        norms_sq = [
            np.sum(sample_fbm_multi(h, d, grid, SeedSpec(52, r)).values[-1] ** 2)
            for r in range(m)
        ]
        assert np.mean(norms_sq) == pytest.approx(d * 1.0 ** (2 * h), rel=0.05)

    @pytest.mark.parametrize("method", SAMPLERS)
    def test_dimension_one_reduces_bitwise(self, method):
        grid = UniformGrid(1.0, 64)
        seed = SeedSpec(7, 3)
        multi = sample_fbm_multi(0.3, 1, grid, seed, method)
        single = {"circulant": sample_fbm_circulant, "cholesky": sample_fbm_cholesky}[method](
            0.3, grid, seed
        )
        assert multi.values[:, 0].tobytes() == single.values.tobytes()
        # replication r of a path job is the multi sample of seed.replicate(r)
        job = PathJob(0.3, 2, 1.0, 64, SeedSpec(7), method)
        direct = sample_fbm_multi(0.3, 2, grid, SeedSpec(7).replicate(3), method)
        assert job.sample(3).values.tobytes() == direct.values.tobytes()

    def test_rejects_bad_dimension_and_method(self):
        grid = UniformGrid(1.0, 4)
        with pytest.raises(DomainError):
            sample_fbm_multi(0.3, 0, grid, SeedSpec(0))
        with pytest.raises(ConfigError, match="euler"):
            sample_fbm_multi(0.3, 2, grid, SeedSpec(0), method="euler")
