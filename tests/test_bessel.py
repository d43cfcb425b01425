"""Tests for the fractional Bessel process, Theta, and its experiments."""

import functools

import numpy as np
import pytest

from click.testing import CliRunner

from rvlab import bessel, fbm
from rvlab.cli import main
from rvlab.core import MultiPath, SeedSpec, UniformGrid
from rvlab.errors import ConfigError, DomainError, GateError, NumericalError
from rvlab.bessel import k_q, require_variation_gate, theta_path
from rvlab.fbm import PathJob, sample_fbm_multi
from rvlab.harness import ExperimentConfig, run_experiment
from rvlab.variation import e_H


def _multipath(values):
    values = np.asarray(values, dtype=float)
    return MultiPath(UniformGrid(1.0, values.shape[0] - 1), values)


def _radius(path):
    return np.linalg.norm(path.values, axis=1)


def _theta_terminal(h, path):
    return float(theta_path(path, h)[-1])


class TestBesselProcess:
    def test_pythagorean_row(self):
        # one cell: Theta_1 = R_1 - H (d - 1) (1 / (2H)) / R_1 with R_1 = ||(3, 4)|| = 5
        theta = theta_path(_multipath([[0.0, 0.0], [3.0, 4.0]]), 0.3)
        assert theta[0] == 0.0
        assert theta[1] == pytest.approx(5.0 - 0.5 / 5.0, rel=1e-15)

    def test_requires_two_dimensions(self):
        path = _multipath([[0.0], [1.0]])
        with pytest.raises(DomainError, match="d >= 2"):
            theta_path(path, 0.3)


class TestThetaPath:
    def test_starts_at_zero_and_sits_below_radius(self):
        h, d = 0.45, 3
        grid = UniformGrid(1.0, 256)
        path = sample_fbm_multi(h, d, grid, SeedSpec(72, 0))
        theta = theta_path(path, h)
        r = _radius(path)
        assert theta[0] == 0.0
        assert np.all(theta[1:] <= r[1:])

    def test_drift_is_nondecreasing(self):
        h, d = 0.45, 3
        grid = UniformGrid(1.0, 128)
        path = sample_fbm_multi(h, d, grid, SeedSpec(72, 1))
        drift = _radius(path) - theta_path(path, h)
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
            theta_path(path, h), theta_path(rotated, h),
            rtol=1e-12, atol=1e-12,
        )

    def test_mean_theta_is_zero(self):
        # Theta is a divergence integral, so E Theta_t = 0.  The
        # right-endpoint drift scheme carries an O(dt^H) mean bias
        # (~K_1 dt^H, about 0.019 at n = 4096), so the grid must be fine
        # enough for the Monte Carlo band to cover it.
        h, d, m = 0.45, 3, 4000
        job = PathJob(h, d, 1.0, 4096, SeedSpec(73))
        samples = np.array(job.map(functools.partial(_theta_terminal, h), m, workers=2))
        se = samples.std(ddof=1) / np.sqrt(m)
        assert abs(samples.mean()) < 3 * se

    def test_bundle_derivation(self):
        h, d = 0.45, 3
        grid = UniformGrid(1.0, 64)
        base = sample_fbm_multi(h, d, grid, SeedSpec(72, 5))
        theta = theta_path(base, h)
        drift = _radius(base) - theta
        assert theta[0] == 0.0
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
                [theta_path(sample_fbm_multi(h, d, grid, SeedSpec(74, r)), h)[-1]
                 for r in range(m)]
            )
            means[n] = (vals.mean(), vals.std(ddof=1) / np.sqrt(m))
        gap = abs(means[2**10][0] - means[2**12][0])
        assert gap < 3 * np.hypot(means[2**10][1], means[2**12][1])


class TestKqConstant:
    def test_closed_form_for_d3_q1(self):
        assert k_q(3, 1.0) == pytest.approx(np.sqrt(2 / np.pi), rel=1e-14)

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
            replications=16, master_seed=75,
        ))
        assert report.rows[0][2] == pytest.approx(e_H(0.45), rel=1e-12)
        check = report.extra
        assert check["xi_check_closed_form"] == pytest.approx(e_H(0.45), rel=1e-12)
        assert check["xi_check_estimate"] == pytest.approx(
            check["xi_check_closed_form"], abs=3 * check["xi_check_se"]
        )
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


def self_similarity(a_list, replications, master_seed, grid_size=256):
    return run_experiment(ExperimentConfig(
        experiment="self-similarity", hurst=0.45, dimension=3, replications=replications,
        master_seed=master_seed, params={"a_list": a_list, "t": 0.5, "grid_size": grid_size},
    ))


class TestSelfSimilarity:
    def test_identity_scale_passes(self):
        report = self_similarity([0.5, 2.0, 3.7], 16, 81)
        assert [row[:3] for row in report.rows] == [
            (0.5, 0.5, "a^-H"), (2.0, 0.5, "a^-H"), (3.7, 0.5, "a^-H"), (3.7, 0.5, "a^-2H"),
        ]
        assert all(row[4] <= row[5] == 1e-9 for row in report.rows[:3])
        assert report.flags == {"scale_covariant": True, "control_rejected": True}

    def test_wrong_scaling_detected(self):
        # the golden's config: 32 replications on a 32-cell grid
        control_row = self_similarity([2.0], 32, 5, grid_size=32).rows[-1]
        assert control_row[2] == "a^-2H"
        assert control_row[4] > 1e-9
        assert control_row[-1] is True

    def test_broken_scale_covariance_fails(self, monkeypatch):
        def shifted(path, hurst):  # Theta_t + t is not H-self-similar
            return theta_path(path, hurst) + path.grid.nodes()

        monkeypatch.setattr(bessel, "theta_path", shifted)
        report = self_similarity([2.0], 8, 81)
        assert report.rows[0][4] > 1e-3
        assert report.flags == {"scale_covariant": False, "control_rejected": True}

    @pytest.mark.parametrize(
        "hurst, a_list, error",
        [
            # a^-H and a^-2H both round to 1: the control could never be rejected
            ("5e-324", "2,4", "the control at a = 4.0 is never rejected"),
            # (1e-200)^-1.8 passes the largest double
            ("0.9", "1e-200", "the control scaling a^-2H at a = 1e-200 passes"),
        ],
        ids=["tiny-hurst", "control-overflow"],
    )
    def test_undecidable_control_exits_2_before_sampling(self, monkeypatch, hurst, a_list, error):
        def sampled(*args, **kwargs):
            raise AssertionError("sampled a path")

        monkeypatch.setattr(fbm, "sample_fbm_circulant", sampled)
        result = CliRunner().invoke(main, ["self-similarity", "--hurst", hurst, "--a-list", a_list,
                                           "--dimension", "3", "--workers", "1"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {error}")

    def test_parameter_validation(self):
        with pytest.raises(GateError):
            run_experiment(ExperimentConfig(experiment="self-similarity", hurst=0.45,
                                            replications=10))
        with pytest.raises(DomainError):
            self_similarity([-2.0], 10, 0)
