"""Tests for q-variation statistics, the Gaussian moments E||Z||^p and the
fBm variation experiment."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from rvlab.core import SeedSpec, UniformGrid
from rvlab.errors import ConfigError, DomainError, NumericalError
from rvlab.fbm import sample_fbm_circulant
from rvlab.harness import ExperimentConfig, run_experiment
from rvlab.variation import chi_moment, e_H, variation_Vnq


def fbm_variation(hurst, grid_sizes, replications, master_seed):
    return run_experiment(
        ExperimentConfig(
            experiment="fbm-variation", hurst=hurst, grid_sizes=grid_sizes,
            replications=replications, master_seed=master_seed,
        )
    )


def gaussian_abs_moment(p: float) -> float:
    """Independent oracle: numeric integration of E|Z|^p for Z ~ N(0,1).

    The density is negligible beyond x = 40 at double precision, so a finite
    interval keeps the quadrature error estimate honest.
    """
    value, err = quad(
        lambda x: 2 * x**p * np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi),
        0,
        40.0,
        epsabs=0,
        epsrel=1e-12,
    )
    assert err < 1e-10 * value
    return value


class TestVariationStatistic:
    def test_constant_path_has_zero_variation(self):
        assert variation_Vnq(np.zeros(5), 1.7) == 0.0

    def test_linear_path_first_variation_is_horizon(self):
        assert variation_Vnq(UniformGrid(2.0, 8).nodes(), 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_hand_sum(self):
        assert variation_Vnq(np.array([0.0, 1.0, -1.0]), 2.0) == 5.0

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(DomainError):
            variation_Vnq(np.zeros(3), 0.0)

    @pytest.mark.parametrize("values", [
        [0.0, 1e200, 0.0],  # a power overflows
        [0.0, 1e154, 0.0],  # finite powers whose sum overflows
    ])
    def test_overflow_is_a_numerical_error(self, values):
        with pytest.raises(NumericalError, match="non-finite"):
            variation_Vnq(np.array(values), 2.0)

    def test_invariances(self):
        rng = np.random.default_rng(77)
        values = np.concatenate([[0.0], rng.standard_normal(32)])
        q = 1.0 / 0.3
        base = variation_Vnq(values, q)

        # level shifts change increments only through rounding of v + c
        assert variation_Vnq(values + 3.7, q) == pytest.approx(base, rel=1e-12)
        assert variation_Vnq(-values, q) == base
        assert variation_Vnq(2.0 * values, 2.0) == 4.0 * variation_Vnq(values, 2.0)

        c = -1.83
        assert variation_Vnq(c * values, q) == pytest.approx(
            abs(c) ** q * base, rel=1e-12
        )


class TestEHConstant:
    def test_brownian_value(self):
        assert e_H(0.5) == pytest.approx(1.0, rel=1e-14)

    def test_quarter_gives_fourth_moment(self):
        assert e_H(0.25) == pytest.approx(3.0, rel=1e-12)

    def test_third_against_integration_oracle(self):
        expected = 2.0 ** 1.5 / np.sqrt(np.pi)  # 2^{3/2} Gamma(2) / sqrt(pi)
        got = e_H(1.0 / 3.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(gaussian_abs_moment(3.0), rel=1e-10)

    @pytest.mark.parametrize("h", [0.25, 0.3, 0.4, 0.5])
    def test_closed_form_matches_oracle(self, h):
        assert e_H(h) == pytest.approx(gaussian_abs_moment(1.0 / h), rel=1e-10)

    @pytest.mark.parametrize("p, moment", [(2, 1), (4, 3), (6, 15), (8, 105), (10, 945)])
    def test_even_moments_are_double_factorials(self, p, moment):
        # E|Z|^p = (p - 1)!! for even p
        assert e_H(1.0 / p) == pytest.approx(moment, rel=1e-14)

    def test_overflow_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="overflows a double"):
            e_H(0.003)

    def test_strictly_decreasing_on_lattice(self):
        values = [e_H(h) for h in (0.25, 0.3, 0.4, 0.5)]
        assert all(b < a for a, b in zip(values, values[1:]))


def _gamma_moment(d: int, p: float) -> float:
    return 2 ** (p / 2) * math.gamma((d + p) / 2) / math.gamma(d / 2)


class TestChiMoment:
    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    @pytest.mark.parametrize(
        "p_of", [lambda d: 1 / 0.45, lambda d: 7.5, lambda d: -0.5, lambda d: 0.25 - d],
        ids=["1/0.45", "7.5", "-0.5", "0.25-d"],
    )
    def test_against_math_gamma(self, d, p_of):
        p = p_of(d)
        assert chi_moment(d, p) == pytest.approx(_gamma_moment(d, p), rel=1e-13)


class TestVariationExperiment:
    def test_brownian_quadratic_variation_mean(self):
        # E V_n^2(B) = T for every n; the estimate must sit within 3 s.e.
        report = fbm_variation(0.5, [64], 200, 13)
        n, est, target, abs_err, rel_err, stderr = report.rows[0]
        spread = np.sqrt(2.0 / 64) / np.sqrt(200)  # sd(V) ~ sqrt(2/n)
        assert abs(est - 1.0) < 3 * spread

    def test_report_shape_and_flags(self):
        report = fbm_variation(0.35, [32, 128], 40, 5)
        assert [row[0] for row in report.rows] == [32, 128]
        assert all(row[5] > 0 for row in report.rows)
        assert "monotone_decreasing" in report.flags
        assert report.meta["hurst"] == 0.35

    def test_rejects_bad_grid_list_and_small_m(self):
        with pytest.raises(ConfigError):
            fbm_variation(0.3, [128, 64], 10, 0)
        with pytest.raises(ConfigError):
            fbm_variation(0.3, [64], 1, 0)

    def test_horizon_self_similarity_of_statistic(self):
        # V_n^{1/H} over horizon T matches T times the horizon-1 statistic in
        # distribution; compare Monte Carlo means within 3 combined s.e.
        h, n, m, horizon = 0.35, 256, 300, 2.0
        q = 1.0 / h
        grid_t = UniformGrid(horizon, n)
        grid_1 = UniformGrid(1.0, n)
        v_t = np.array(
            [
                variation_Vnq(sample_fbm_circulant(h, grid_t, SeedSpec(61, r)), q)
                for r in range(m)
            ]
        )
        v_1 = np.array(
            [
                variation_Vnq(sample_fbm_circulant(h, grid_1, SeedSpec(62, r)), q)
                for r in range(m)
            ]
        )
        se = np.sqrt(v_t.var(ddof=1) / m + horizon**2 * v_1.var(ddof=1) / m)
        assert abs(v_t.mean() - horizon * v_1.mean()) < 3 * se
