"""Tests for weighted time integrals, divergence representations and the
variation/scaling experiments on whitelisted integrands."""

import math
import tracemalloc

import numpy as np
import pytest

from rvlab import ito
from rvlab.core import SeedSpec, UniformGrid, weighted_cumulative
from rvlab.errors import ConfigError, DegenerateInputError, DomainError, NumericalError
from rvlab.fbm import sample_fbm_circulant, sample_fbm_multi
from rvlab.ito import (
    INTEGRANDS,
    MULTI_INTEGRANDS,
    MultiIntegrandSpec,
    SmoothIntegrandSpec,
    _cross_check,
    default_interval_pairs,
    divergence_reading,
    divergence_via_ito,
    divergence_via_ito_multi,
    lp_scaling_experiment,
    register_integrand,
    register_multi_integrand,
    variation_experiment,
    xi_mc_target,
)
from rvlab.variation import e_H


class TestWeightedTimeIntegral:
    def test_constant_integrand_is_exact_power(self):
        grid = UniformGrid(1.0, 64)
        ones = np.ones(65)
        for h in (0.3, 0.45):
            for upto in (16, 64):
                t = grid.node(upto)
                got = weighted_cumulative(ones, grid, h)[upto]
                assert got == pytest.approx(t ** (2 * h) / (2 * h), rel=1e-12)

    def test_half_reduces_to_riemann_sum(self):
        grid = UniformGrid(2.0, 32)
        rng = np.random.default_rng(1)
        g = rng.standard_normal(33)
        got = weighted_cumulative(g, grid, 0.5)[32]
        assert got == pytest.approx(np.sum(g[1:]) * grid.dt, rel=1e-12)

    def test_linear_integrand_converges(self):
        # int_0^1 s * s^{2H-1} ds = 1 / (2H + 1), right-endpoint bias O(1/n)
        h = 0.3
        exact = 1.0 / (2 * h + 1)
        errors = {}
        for n in (2**8, 2**12):
            grid = UniformGrid(1.0, n)
            got = weighted_cumulative(grid.nodes(), grid, h)[n]
            errors[n] = abs(got - exact)
        assert errors[2**12] < 5e-4
        assert errors[2**12] < errors[2**8] / 8

    def test_refinement_is_first_order(self):
        # Lipschitz integrand: error vs a fine reference halves when n doubles.
        h, horizon = 0.35, 1.0
        reference_grid = UniformGrid(horizon, 2**14)
        reference = weighted_cumulative(np.cos(reference_grid.nodes()), reference_grid, h)[2**14]
        errors = []
        for n in (256, 512, 1024):
            grid = UniformGrid(horizon, n)
            errors.append(abs(weighted_cumulative(np.cos(grid.nodes()), grid, h)[n] - reference))
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.5 <= coarse / fine <= 2.5


class TestIntegrandRegistry:
    def test_whitelist_contents(self):
        assert {"identity", "quadratic", "cubic", "constant"} <= set(INTEGRANDS)
        assert {"radial_quadratic", "linear_sum"} <= set(MULTI_INTEGRANDS)

    def test_bad_second_derivative_rejected(self):
        bad = SmoothIntegrandSpec(
            f=lambda x: 0.5 * np.asarray(x) ** 2,
            f_prime=lambda x: np.asarray(x),
            f_pp=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
            label="broken",
        )
        with pytest.raises(ConfigError, match="f_pp"):
            register_integrand(bad)
        assert "broken" not in INTEGRANDS

    def test_bad_gradient_rejected(self):
        bad = MultiIntegrandSpec(
            f=lambda x: np.sum(np.asarray(x) ** 2, axis=-1),
            gradient=lambda x: np.asarray(x),  # true gradient is 2x
            laplacian=lambda x: 2.0 * np.asarray(x).shape[-1]
            * np.ones(np.asarray(x).shape[:-1]),
            label="broken_multi",
        )
        with pytest.raises(ConfigError, match="gradient"):
            register_multi_integrand(bad)

    def test_duplicate_label_rejected(self):
        spec = INTEGRANDS["quadratic"]
        with pytest.raises(ConfigError, match="already registered"):
            register_integrand(spec)

    def test_unknown_label_in_experiment(self):
        with pytest.raises(ConfigError, match="unknown 1-dim integrand"):
            variation_experiment(
                "divergence-variation", 0.45, 1.0, [64], 4, SeedSpec(0), integrand="nope"
            )


class TestDivergence:
    def test_identity_potential_returns_path(self):
        grid = UniformGrid(1.0, 64)
        path = sample_fbm_circulant(0.45, grid, SeedSpec(2, 0))
        x = divergence_via_ito(INTEGRANDS["identity"], path, 0.45)
        assert np.array_equal(x.values, path.values)

    def test_quadratic_identity_per_node(self):
        # For f = x^2/2: 2 X_t + t^{2H} = B_t^2 at every node.
        h = 0.45
        grid = UniformGrid(1.0, 256)
        path = sample_fbm_circulant(h, grid, SeedSpec(2, 1))
        x = divergence_via_ito(INTEGRANDS["quadratic"], path, h)
        t = grid.nodes()
        lhs = 2 * x.values + t ** (2 * h)
        assert np.allclose(lhs, path.values**2, rtol=1e-11, atol=1e-13)

    def test_constant_potential_gives_zero(self):
        grid = UniformGrid(1.0, 32)
        path = sample_fbm_circulant(0.3, grid, SeedSpec(2, 2))
        x = divergence_via_ito(INTEGRANDS["constant"], path, 0.3)
        assert np.all(x.values == 0.0)

    def test_linearity_in_potential(self):
        h = 0.4
        grid = UniformGrid(1.0, 128)
        path = sample_fbm_circulant(h, grid, SeedSpec(2, 3))
        combined = SmoothIntegrandSpec(
            f=lambda x: 0.5 * np.asarray(x) ** 2 + np.asarray(x) ** 3 / 3.0,
            f_prime=lambda x: np.asarray(x) + np.asarray(x) ** 2,
            f_pp=lambda x: 1.0 + 2.0 * np.asarray(x),
            label="quadratic+cubic",
        )
        x_sum = divergence_via_ito(combined, path, h)
        x_parts = (
            divergence_via_ito(INTEGRANDS["quadratic"], path, h).values
            + divergence_via_ito(INTEGRANDS["cubic"], path, h).values
        )
        assert np.allclose(x_sum.values, x_parts, rtol=1e-12, atol=1e-14)

    def test_starts_at_zero(self):
        grid = UniformGrid(1.0, 16)
        path = sample_fbm_circulant(0.3, grid, SeedSpec(2, 4))
        for label in ("identity", "quadratic", "cubic"):
            assert divergence_via_ito(INTEGRANDS[label], path, 0.3).values[0] == 0.0

    def test_overflow_reports_node(self):
        grid = UniformGrid(1.0, 16)
        path = sample_fbm_circulant(0.3, grid, SeedSpec(2, 5))
        explosive = SmoothIntegrandSpec(
            f=lambda x: np.exp(1e4 * np.asarray(x, dtype=float) ** 2),
            f_prime=lambda x: x,
            f_pp=lambda x: x,
            label="explosive",
        )
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="node"):
                divergence_via_ito(explosive, path, 0.3)

    def test_reading_label(self):
        assert divergence_reading(0.3) == "divergence"
        assert divergence_reading(0.45) == "divergence"
        assert divergence_reading(0.2) == "extended-domain"


class TestDivergenceMulti:
    def test_radial_closed_form(self):
        h, d = 0.45, 3
        grid = UniformGrid(1.0, 128)
        path = sample_fbm_multi(h, d, grid, SeedSpec(3, 0))
        x = divergence_via_ito_multi(MULTI_INTEGRANDS["radial_quadratic"], path, h)
        t = grid.nodes()
        expected = 0.5 * (np.sum(path.values**2, axis=1) - d * t ** (2 * h))
        assert np.allclose(x.values, expected, rtol=1e-11, atol=1e-13)

    def test_linear_potential_sums_components(self):
        h, d = 0.4, 2
        grid = UniformGrid(1.0, 64)
        path = sample_fbm_multi(h, d, grid, SeedSpec(3, 1))
        x = divergence_via_ito_multi(MULTI_INTEGRANDS["linear_sum"], path, h)
        assert np.allclose(x.values, path.values.sum(axis=1), rtol=1e-12, atol=0)

    def test_dimension_one_reduces_to_scalar_case(self):
        h = 0.45
        grid = UniformGrid(1.0, 64)
        multi = sample_fbm_multi(h, 1, grid, SeedSpec(3, 2))
        scalar = sample_fbm_circulant(h, grid, SeedSpec(3, 2))
        x_multi = divergence_via_ito_multi(MULTI_INTEGRANDS["radial_quadratic"], multi, h)
        x_scalar = divergence_via_ito(INTEGRANDS["quadratic"], scalar, h)
        assert np.allclose(x_multi.values, x_scalar.values, rtol=1e-14, atol=0)


class TestScalarDivergenceVariation:
    def test_identity_reduces_to_fbm_variation(self):
        h, grids, m = 0.45, [64, 128], 24
        via_thm = variation_experiment(
            "divergence-variation", h, 1.0, grids, m, SeedSpec(17), integrand="identity"
        )
        via_fbm = variation_experiment("fbm-variation", h, 1.0, grids, m, SeedSpec(17))
        for row_a, row_b in zip(via_thm.rows, via_fbm.rows):
            assert row_a[1] == row_b[1]  # same paths, same statistic
            assert row_a[2] == pytest.approx(row_b[2], rel=1e-12)  # e_H * T

    def test_quadratic_small_run_structure(self):
        report = variation_experiment(
            "divergence-variation", 0.45, 1.0, [128, 512], 40, SeedSpec(9), integrand="quadratic"
        )
        assert report.meta["reading"] == "divergence"
        assert [r[0] for r in report.rows] == [128, 512]
        # the Monte Carlo L^1 error should already be moderate at n = 512
        assert report.rows[-1][4] < 0.25

    def test_constant_integrand_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            variation_experiment(
                "divergence-variation", 0.45, 1.0, [64], 8, SeedSpec(0), integrand="constant"
            )

    def test_error_trend_over_grid_ladder(self):
        report = variation_experiment(
            "divergence-variation", 0.45, 1.0, [64, 256, 1024, 4096], 100, SeedSpec(103),
            integrand="quadratic",
        )
        assert report.flags["monotone_decreasing"], [r[4] for r in report.rows]
        assert report.rows[-1][4] < 0.10


class TestMultiDivergenceVariation:
    def test_dimension_one_matches_scalar_experiment(self):
        h, grids, m = 0.45, [128], 16
        multi = variation_experiment(
            "divergence-variation-multi", h, 1.0, grids, m, SeedSpec(19),
            integrand="radial_quadratic", dimension=1, xi_draws=2000,
        )
        scalar = variation_experiment(
            "divergence-variation", h, 1.0, grids, m, SeedSpec(19), integrand="quadratic"
        )
        assert multi.rows[0][1] == scalar.rows[0][1]
        assert multi.rows[0][2] == pytest.approx(scalar.rows[0][2], rel=1e-12)

    def test_dual_targets_agree(self):
        report = variation_experiment(
            "divergence-variation-multi", 0.45, 1.0, [256], 20, SeedSpec(19),
            integrand="radial_quadratic", dimension=3, xi_draws=4000,
        )
        row = report.rows[0]
        assert row[6] == pytest.approx(row[2], abs=3 * row[7])
        assert report.flags["targets_agree_3se"]

    def test_unit_integrand_nu_functional(self):
        # For constant unit u, <u, xi> is standard normal under the
        # Gaussian measure, so the nu-integral equals e_H * T.
        h, d, n = 0.45, 3, 64
        u = np.tile(np.array([1.0, 0.0, 0.0]), (n, 1))
        est, se = xi_mc_target(u, 1.0 / n, 1.0 / h, SeedSpec(77).stream(lane=1), 20_000)
        assert abs(est - e_H(h)) < 3 * se

    def test_cross_check_abort(self):
        fake = [(1.0, 1.0, 0.0, 2.0, 1e-6)]  # target_a = 1, target_mc = 2
        with pytest.raises(NumericalError, match="disagree"):
            _cross_check(fake, 64)

    def test_cross_check_nan_se_aborts(self):
        fake = [(1.0, 1.0, 0.0, 1.0, math.nan)]  # a standard error that checks nothing
        with pytest.raises(NumericalError, match="disagree"):
            _cross_check(fake, 64)

    @pytest.mark.parametrize("draws", [0, 2, 3])
    def test_xi_draws_without_a_standard_error_rejected(self, draws):
        u = np.ones((8, 1))
        with pytest.raises(ConfigError, match="xi_draws must be an even count >= 4"):
            xi_mc_target(u, 1.0 / 8, 1.0 / 0.45, SeedSpec(77).stream(lane=1), draws)


def _unit_rows(n: int, d: int) -> np.ndarray:
    v = np.random.default_rng(n).standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestXiSubBlocks:
    # n = 4096 gives draw blocks of 976 columns, n = 257 one block of 5000;
    # neither is a multiple of 7 or 256, and chunk + 1 evaluates each draw
    # block in one pass.  Six draws are one block of 3 columns, which width 2
    # would split into 2 + 1: a one-column pass has other last bits, and with
    # three pairs they show in (mean, se).  Width 1 makes every pass one
    # column, so 2 is the smallest width that can match.
    @pytest.mark.parametrize("n, draws", [(4096, 10_000), (257, 10_000), (4096, 6)])
    def test_width_leaves_result_bit_equal(self, n, draws, monkeypatch):
        u = _unit_rows(n, 3)
        chunk = min(draws // 2, int(4e6) // n)
        got = set()
        for width in (2, 7, 256, chunk + 1):
            monkeypatch.setattr(ito, "_XI_BLOCK", width)
            got.add(xi_mc_target(u, 1.0 / n, 1.0 / 0.45, SeedSpec(31).stream(lane=1), draws))
        assert len(got) == 1, got

    def test_work_array_is_bounded(self):
        n = 4096
        u = _unit_rows(n, 3)
        stream = SeedSpec(31).stream(lane=1)
        tracemalloc.start()
        try:
            xi_mc_target(u, 1.0 / n, 1.0 / 0.45, stream, 10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (4096 x 976) float64 temporary alone is 32 MB
        assert peak < 16e6, peak


class TestLpScaling:
    def test_identity_slope_near_one(self):
        report = lp_scaling_experiment(
            "identity", 0.45, 1.0, None, 600, SeedSpec(23), grid_size=1024
        )
        assert abs(report.extra["slope"] - 1.0) < 0.1
        assert report.extra["r_squared"] > 0.99

    def test_default_intervals_respect_origin_gap(self):
        for a, b in default_interval_pairs(2.0):
            assert a >= 0.5
            assert b > a

    def test_rejects_few_widths(self):
        pairs = [(0.25, 0.5), (0.25, 0.375)]
        with pytest.raises(ConfigError, match="3 distinct"):
            lp_scaling_experiment("identity", 0.45, 1.0, pairs, 10, SeedSpec(0))

    def test_rejects_intervals_near_origin(self):
        pairs = [(0.1, 0.2), (0.1, 0.15), (0.1, 0.125)]
        with pytest.raises(ConfigError, match="T/4"):
            lp_scaling_experiment("identity", 0.45, 1.0, pairs, 10, SeedSpec(0))

    def test_constant_potential_rejected_as_degenerate(self):
        with pytest.raises(DegenerateInputError):
            lp_scaling_experiment(
                "constant", 0.45, 1.0, None, 10, SeedSpec(0), grid_size=512
            )

    def test_off_grid_interval_rejected(self):
        pairs = [(0.25, 0.3111), (0.25, 0.5), (0.25, 0.375)]
        with pytest.raises(DomainError):
            lp_scaling_experiment(
                "identity", 0.45, 1.0, pairs, 10, SeedSpec(0), grid_size=64
            )
