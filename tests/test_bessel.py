"""Tests for the fractional Bessel process, Theta, and its experiments."""

import numpy as np
import pytest

from rvlab.core import MultiPath, SeedSpec, UniformGrid
from rvlab.errors import ConfigError, DomainError, GateError, NumericalError
from rvlab.bessel import (
    bessel_from_multipath,
    k_q,
    require_variation_gate,
    theta_path,
)
from rvlab.fbm import sample_fbm_multi
from rvlab.harness import ExperimentConfig, run_experiment
from rvlab.variation import e_H


def _multipath(values):
    values = np.asarray(values, dtype=float)
    return MultiPath(UniformGrid(1.0, values.shape[0] - 1), values)


class TestBesselProcess:
    def test_pythagorean_row(self):
        path = _multipath([[0.0, 0.0], [3.0, 4.0]])
        r = bessel_from_multipath(path)
        assert r.values[0] == 0.0
        assert r.values[1] == 5.0

    def test_requires_two_dimensions(self):
        path = _multipath([[0.0], [1.0]])
        with pytest.raises(DomainError, match="d >= 2"):
            bessel_from_multipath(path)

    def test_mean_squared_radius(self):
        # E R_t^2 = d t^{2H}
        h, d, m = 0.45, 3, 10_000
        grid = UniformGrid(1.0, 4)
        sq = [
            np.sum(sample_fbm_multi(h, d, grid, SeedSpec(71, r)).values[-1] ** 2)
            for r in range(m)
        ]
        assert np.mean(sq) == pytest.approx(d, rel=0.05)


class TestThetaPath:
    def test_starts_at_zero_and_sits_below_radius(self):
        h, d = 0.45, 3
        grid = UniformGrid(1.0, 256)
        path = sample_fbm_multi(h, d, grid, SeedSpec(72, 0))
        theta = theta_path(path, h)
        r = bessel_from_multipath(path)
        assert theta.values[0] == 0.0
        assert np.all(theta.values[1:] <= r.values[1:])

    def test_drift_is_nondecreasing(self):
        h, d = 0.45, 3
        grid = UniformGrid(1.0, 128)
        path = sample_fbm_multi(h, d, grid, SeedSpec(72, 1))
        drift = bessel_from_multipath(path).values - theta_path(path, h).values
        assert np.all(np.diff(drift) >= 0)

    def test_zero_radius_flags_corruption(self):
        values = np.zeros((3, 2))
        values[2] = [1.0, 1.0]
        with pytest.raises(NumericalError, match="R = 0"):
            theta_path(_multipath(values), 0.45)

    def test_rotation_invariance(self):
        h, d = 0.45, 3
        grid = UniformGrid(1.0, 64)
        path = sample_fbm_multi(h, d, grid, SeedSpec(72, 2))
        rng = np.random.default_rng(5)
        q_mat, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rotated = MultiPath(grid, path.values @ q_mat.T)
        assert np.allclose(
            theta_path(path, h).values, theta_path(rotated, h).values,
            rtol=1e-12, atol=1e-12,
        )

    def test_mean_theta_is_zero(self):
        # Theta is a divergence integral, so E Theta_t = 0.  The
        # right-endpoint drift scheme carries an O(dt^H) mean bias
        # (~K_1 dt^H, about 0.019 at n = 4096), so the grid must be fine
        # enough for the Monte Carlo band to cover it.
        h, d, m = 0.45, 3, 4000
        grid = UniformGrid(1.0, 4096)
        samples = np.array(
            [theta_path(sample_fbm_multi(h, d, grid, SeedSpec(73, r)), h).values[-1]
             for r in range(m)]
        )
        se = samples.std(ddof=1) / np.sqrt(m)
        assert abs(samples.mean()) < 3 * se

    def test_bundle_derivation(self):
        h, d = 0.45, 3
        grid = UniformGrid(1.0, 64)
        base = sample_fbm_multi(h, d, grid, SeedSpec(72, 5))
        r, theta = bessel_from_multipath(base), theta_path(base, h)
        drift = r.values - theta.values
        assert np.array_equal(r.values, np.linalg.norm(base.values, axis=1))
        assert theta.values[0] == 0.0
        assert np.all(drift >= 0.0)
        assert np.all(np.diff(drift) >= 0.0)

    def test_refinement_keeps_terminal_mean(self):
        # No coupled refinement is required: Monte Carlo means of Theta_T
        # must agree across grid sizes within 3 combined standard errors.
        h, d, m = 0.45, 3, 400
        means = {}
        for n in (2**10, 2**12):
            grid = UniformGrid(1.0, n)
            vals = np.array(
                [theta_path(sample_fbm_multi(h, d, grid, SeedSpec(74, r)), h).values[-1]
                 for r in range(m)]
            )
            means[n] = (vals.mean(), vals.std(ddof=1) / np.sqrt(m))
        gap = abs(means[2**10][0] - means[2**12][0])
        assert gap < 3 * np.hypot(means[2**10][1], means[2**12][1])


class TestKqConstant:
    def test_closed_form_for_d3_q1(self):
        assert k_q(3, 1.0) == pytest.approx(np.sqrt(2 / np.pi), rel=1e-12)

    def test_monte_carlo_validation(self):
        rng = np.random.default_rng(99)
        z = rng.standard_normal((200_000, 3))
        inv_norms = 1.0 / np.linalg.norm(z, axis=1)
        se = inv_norms.std(ddof=1) / np.sqrt(len(inv_norms))
        assert abs(k_q(3, 1.0) - inv_norms.mean()) < 3 * se

    @pytest.mark.parametrize("q", [3.0, 3.5])
    def test_gate_rejects_q_at_or_above_d(self, q):
        with pytest.raises(GateError, match="q < d"):
            k_q(3, q)


class TestVariationGate:
    def test_rejects_low_h(self):
        with pytest.raises(GateError, match=r"2dH\^2 > 1"):
            require_variation_gate(3, 0.35)

    def test_accepts_high_h(self):
        require_variation_gate(3, 0.45)  # 2*3*0.2025 = 1.215

    def test_experiment_gate_fires_before_sampling(self):
        with pytest.raises(GateError):
            run_experiment(ExperimentConfig(
                experiment="theta-variation", hurst=0.35, dimension=3, grid_sizes=[64],
                replications=8, master_seed=0,
            ))


class TestThetaVariationExperiment:
    def test_target_is_eh_times_horizon(self):
        report = run_experiment(ExperimentConfig(
            experiment="theta-variation", hurst=0.45, dimension=3, grid_sizes=[128],
            replications=16, master_seed=75, params={"xi_draws": 4000},
        ))
        row = report.rows[0]
        assert row[2] == pytest.approx(e_H(0.45), rel=1e-12)
        assert row[6] == pytest.approx(row[2], abs=3 * row[7])
        assert report.flags["targets_agree_3se"]


def negative_moments(q, t_list, replications, master_seed):
    return run_experiment(
        ExperimentConfig(
            experiment="negative-moments", hurst=0.45, dimension=3, replications=replications,
            master_seed=master_seed, params={"q": q, "t_list": t_list},
        )
    )


class TestNegativeMoments:
    def test_small_run_slope_and_intercept(self):
        report = negative_moments(1.0, [0.25, 0.5, 1.0, 2.0], 4000, 76)
        assert report.extra["slope_target"] == pytest.approx(-0.45)
        assert abs(report.extra["slope"] - report.extra["slope_target"]) < 0.05
        assert abs(report.extra["intercept"] - report.extra["intercept_target"]) < 0.1
        assert report.extra["r_squared"] > 0.99

    def test_gates(self):
        with pytest.raises(GateError):
            negative_moments(3.0, [0.5, 1.0], 16, 0)
        with pytest.raises(ConfigError):
            # sqrt(2) is incommensurate with 1 on any uniform grid
            negative_moments(1.0, [1.0, float(np.sqrt(2))], 16, 0)
        with pytest.raises(ConfigError):
            negative_moments(1.0, [1.0], 16, 0)
        with pytest.raises(ConfigError, match="increasing"):
            negative_moments(1.0, [0.5, 0.5, 1.0], 16, 0)


def self_similarity(a_list, replications, master_seed, **params):
    return run_experiment(ExperimentConfig(
        experiment="self-similarity", hurst=0.45, dimension=3, replications=replications,
        master_seed=master_seed, params={"a_list": a_list, "t": 0.5, "grid_size": 256, **params},
    ))


class TestSelfSimilarity:
    def test_identity_scale_passes(self):
        report = self_similarity([1.0], 400, 81, control=False)
        (row,) = report.rows
        assert row[5] > 0.01
        assert row[2] == "a^-H"
        assert report.flags == {"marginals_match": True}

    def test_wrong_scaling_detected(self):
        # the control row of a_list [4.0]: its arms start at replication 2 * 800
        control_row = self_similarity([4.0], 800, 82).rows[-1]
        assert control_row[5] < 0.01
        assert control_row[2] == "a^-2H"

    def test_suite_applies_bonferroni_and_control(self):
        report = run_experiment(ExperimentConfig(
            experiment="self-similarity", hurst=0.45, dimension=3, replications=300,
            master_seed=83, params={"a_list": [2.0, 4.0], "t": 0.5, "grid_size": 128},
        ))
        assert len(report.rows) == 3  # two pairs plus control
        threshold = report.rows[0][6]
        assert threshold == pytest.approx(0.005)
        control_row = report.rows[-1]
        assert control_row[2] == "a^-2H"
        assert set(report.flags) == {"marginals_match", "control_rejected"}

    def test_parameter_validation(self):
        with pytest.raises(GateError):
            run_experiment(ExperimentConfig(experiment="self-similarity", hurst=0.45,
                                            replications=10))
        with pytest.raises(DomainError):
            self_similarity([-2.0], 10, 0)
