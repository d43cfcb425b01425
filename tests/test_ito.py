"""Tests for weighted time integrals, divergence representations and the
variation/scaling experiments on whitelisted integrands."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from rvlab import ito
from rvlab.cli import main
from rvlab.core import SeedSpec, UniformGrid, weighted_cumulative
from rvlab.errors import ConfigError, DegenerateInputError, NumericalError
from rvlab.fbm import sample_fbm_circulant, sample_fbm_multi
from rvlab.ito import (
    INTEGRANDS,
    IntegrandSpec,
    _cross_check,
    default_interval_pairs,
    divergence_reading,
    divergence_via_ito,
    divergence_via_ito_multi,
    xi_mc_target,
)
from rvlab.harness import ExperimentConfig, run_experiment
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


_FD_TOL = 1e-4


def _fd_disagreements(spec: IntegrandSpec, d: int) -> list[str]:
    """Which of the spec's gradient and Laplacian disagree with central
    finite differences of its F at dimension d; the probes are evaluated as
    one batch along the leading axes, as on a path."""
    rng = np.random.default_rng(20240917)
    d1, d2 = 1e-6, 1e-4
    x = np.vstack([np.zeros(d), rng.uniform(-2, 2, size=(4, d))])
    shift = np.eye(d)  # x[:, None] +- h * shift: one probe per coordinate
    fx = np.asarray(spec.f(x), dtype=float)[:, None]
    up1, down1 = (np.asarray(spec.f(x[:, None] + sign * d1 * shift)) for sign in (1, -1))
    up2, down2 = (np.asarray(spec.f(x[:, None] + sign * d2 * shift)) for sign in (1, -1))
    checks = (
        ("gradient", spec.gradient(x), (up1 - down1) / (2 * d1)),
        ("laplacian", spec.laplacian(x), np.sum(up2 - 2 * fx + down2, axis=1) / d2**2),
    )
    wrong = []
    for name, got, want in checks:
        got = np.asarray(got, dtype=float)
        if got.shape != want.shape or not np.all(
            np.abs(got - want) <= _FD_TOL * np.maximum(1.0, np.abs(want))
        ):
            wrong.append(name)
    return wrong


class TestIntegrandRegistry:
    def test_whitelist_contents(self):
        assert set(INTEGRANDS) == {
            "identity", "linear_sum", "quadratic", "radial_quadratic", "cubic", "constant"
        }
        assert all(spec.label == label for label, spec in INTEGRANDS.items())

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("label", sorted(INTEGRANDS))
    def test_derivatives_match_finite_differences(self, label, d):
        assert _fd_disagreements(INTEGRANDS[label], d) == []

    # the three wrong specs below are the finite-difference check's power control

    def test_bad_second_derivative_rejected(self):
        bad = IntegrandSpec(
            f=lambda x: 0.5 * np.sum(np.asarray(x) ** 2, axis=-1),
            gradient=lambda x: np.asarray(x),
            laplacian=lambda x: -np.ones(np.shape(x)[:-1]),
            label="broken",
        )
        assert _fd_disagreements(bad, 1) == _fd_disagreements(bad, 3) == ["laplacian"]

    def test_bad_gradient_rejected(self):
        bad = IntegrandSpec(
            f=lambda x: np.sum(np.asarray(x) ** 2, axis=-1),
            gradient=lambda x: np.asarray(x),  # true gradient is 2x
            laplacian=lambda x: 2.0 * np.asarray(x).shape[-1]
            * np.ones(np.asarray(x).shape[:-1]),
            label="broken_multi",
        )
        assert _fd_disagreements(bad, 1) == _fd_disagreements(bad, 3) == ["gradient"]

    def test_spec_wrong_only_at_dimension_one_rejected(self):
        # the Laplacian of |x|^2 / 2 is d, not 3: right at d = 3 only
        bad = IntegrandSpec(
            f=lambda x: 0.5 * np.sum(np.asarray(x) ** 2, axis=-1),
            gradient=lambda x: np.asarray(x),
            laplacian=lambda x: np.full(np.shape(x)[:-1], 3.0),
            label="three_dim_only",
        )
        assert _fd_disagreements(bad, 1) == ["laplacian"]
        assert _fd_disagreements(bad, 3) == []

    def test_unknown_label_in_experiment(self):
        with pytest.raises(ConfigError, match="unknown integrand"):
            run_experiment(ExperimentConfig(
                experiment="divergence-variation", hurst=0.45, grid_sizes=[64], replications=4,
                master_seed=0, params={"integrand": "nope"},
            ))


class TestDivergence:
    def test_identity_potential_returns_path(self):
        grid = UniformGrid(1.0, 64)
        path = sample_fbm_circulant(0.45, grid, SeedSpec(2, 0))
        x = divergence_via_ito(INTEGRANDS["identity"], grid, path, 0.45)
        assert np.array_equal(x, path)

    def test_quadratic_identity_per_node(self):
        # For f = x^2/2: 2 X_t + t^{2H} = B_t^2 at every node.
        h = 0.45
        grid = UniformGrid(1.0, 256)
        path = sample_fbm_circulant(h, grid, SeedSpec(2, 1))
        x = divergence_via_ito(INTEGRANDS["quadratic"], grid, path, h)
        t = grid.nodes()
        lhs = 2 * x + t ** (2 * h)
        assert np.allclose(lhs, path**2, rtol=1e-11, atol=1e-13)

    def test_constant_potential_gives_zero(self):
        grid = UniformGrid(1.0, 32)
        path = sample_fbm_circulant(0.3, grid, SeedSpec(2, 2))
        x = divergence_via_ito(INTEGRANDS["constant"], grid, path, 0.3)
        assert np.all(x == 0.0)

    def test_linearity_in_potential(self):
        h = 0.4
        grid = UniformGrid(1.0, 128)
        path = sample_fbm_circulant(h, grid, SeedSpec(2, 3))
        combined = IntegrandSpec(
            f=lambda x: np.sum(0.5 * np.asarray(x) ** 2 + np.asarray(x) ** 3 / 3.0, axis=-1),
            gradient=lambda x: np.asarray(x) + np.asarray(x) ** 2,
            laplacian=lambda x: np.sum(1.0 + 2.0 * np.asarray(x), axis=-1),
            label="quadratic+cubic",
        )
        x_sum = divergence_via_ito(combined, grid, path, h)
        x_parts = (
            divergence_via_ito(INTEGRANDS["quadratic"], grid, path, h)
            + divergence_via_ito(INTEGRANDS["cubic"], grid, path, h)
        )
        assert np.allclose(x_sum, x_parts, rtol=1e-12, atol=1e-14)

    def test_starts_at_zero(self):
        grid = UniformGrid(1.0, 16)
        path = sample_fbm_circulant(0.3, grid, SeedSpec(2, 4))
        for label in ("identity", "quadratic", "cubic"):
            assert divergence_via_ito(INTEGRANDS[label], grid, path, 0.3)[0] == 0.0

    def test_overflow_reports_node(self):
        grid = UniformGrid(1.0, 16)
        path = sample_fbm_circulant(0.3, grid, SeedSpec(2, 5))
        explosive = IntegrandSpec(
            f=lambda x: np.exp(1e4 * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)),
            gradient=lambda x: x,
            laplacian=lambda x: np.sum(x, axis=-1),
            label="explosive",
        )
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="node"):
                divergence_via_ito(explosive, grid, path, 0.3)

    def test_reading_label(self):
        assert divergence_reading(0.3) == "divergence"
        assert divergence_reading(0.45) == "divergence"
        assert divergence_reading(0.2) == "extended-domain"


class TestDivergenceMulti:
    def test_radial_closed_form(self):
        h, d = 0.45, 3
        grid = UniformGrid(1.0, 128)
        path = sample_fbm_multi(h, d, grid, SeedSpec(3, 0))
        x = divergence_via_ito_multi(INTEGRANDS["radial_quadratic"], path, h)
        t = grid.nodes()
        expected = 0.5 * (np.sum(path.values**2, axis=1) - d * t ** (2 * h))
        assert np.allclose(x, expected, rtol=1e-11, atol=1e-13)

    def test_linear_potential_sums_components(self):
        h, d = 0.4, 2
        grid = UniformGrid(1.0, 64)
        path = sample_fbm_multi(h, d, grid, SeedSpec(3, 1))
        x = divergence_via_ito_multi(INTEGRANDS["linear_sum"], path, h)
        assert np.allclose(x, path.values.sum(axis=1), rtol=1e-12, atol=0)

    def test_dimension_one_reduces_to_scalar_case(self):
        h = 0.45
        grid = UniformGrid(1.0, 64)
        multi = sample_fbm_multi(h, 1, grid, SeedSpec(3, 2))
        scalar = sample_fbm_circulant(h, grid, SeedSpec(3, 2))
        x_multi = divergence_via_ito_multi(INTEGRANDS["radial_quadratic"], multi, h)
        x_scalar = divergence_via_ito(INTEGRANDS["quadratic"], grid, scalar, h)
        assert np.array_equal(x_multi, x_scalar)

    def test_cubic_closed_form(self):
        # F = sum x_i^3 / 3 has Laplacian 2 sum x_i, so
        # X_t = F(B_t) - 2H int_0^t sum_i B^i_s s^{2H-1} ds
        h, d = 0.4, 3
        grid = UniformGrid(1.0, 64)
        path = sample_fbm_multi(h, d, grid, SeedSpec(3, 3))
        x = divergence_via_ito_multi(INTEGRANDS["cubic"], path, h)
        drift = weighted_cumulative(path.values.sum(axis=1), grid, h)
        expected = np.sum(path.values**3, axis=1) / 3.0 - 2 * h * drift
        assert np.allclose(x, expected, rtol=1e-12, atol=1e-14)


class TestScalarDivergenceVariation:
    def test_identity_reduces_to_fbm_variation(self):
        h, grids, m = 0.45, [64, 128], 24
        via_thm = run_experiment(ExperimentConfig(
            experiment="divergence-variation", hurst=h, grid_sizes=grids, replications=m,
            master_seed=17, params={"integrand": "identity"},
        ))
        via_fbm = run_experiment(ExperimentConfig(
            experiment="fbm-variation", hurst=h, grid_sizes=grids, replications=m, master_seed=17
        ))
        for row_a, row_b in zip(via_thm.rows, via_fbm.rows):
            assert row_a[1] == row_b[1]  # same paths, same statistic
            assert row_a[2] == pytest.approx(row_b[2], rel=1e-12)  # e_H * T

    def test_quadratic_small_run_structure(self):
        report = run_experiment(ExperimentConfig(
            experiment="divergence-variation", hurst=0.45, grid_sizes=[128, 512],
            replications=40, master_seed=9, params={"integrand": "quadratic"},
        ))
        assert report.meta["reading"] == "divergence"
        assert [r[0] for r in report.rows] == [128, 512]
        # the Monte Carlo L^1 error should already be moderate at n = 512
        assert report.rows[-1][4] < 0.25

    def test_constant_integrand_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            run_experiment(ExperimentConfig(
                experiment="divergence-variation", hurst=0.45, grid_sizes=[64], replications=8,
                master_seed=0, params={"integrand": "constant"},
            ))

    def test_error_trend_over_grid_ladder(self):
        report = run_experiment(ExperimentConfig(
            experiment="divergence-variation", hurst=0.45, grid_sizes=[64, 256, 1024, 4096],
            replications=100, master_seed=103, params={"integrand": "quadratic"},
        ))
        assert report.flags["monotone_decreasing"], [r[4] for r in report.rows]
        assert report.rows[-1][4] < 0.10


class TestMultiDivergenceVariation:
    def test_dimension_one_matches_scalar_experiment(self):
        h, grids, m = 0.45, [128], 16
        multi = run_experiment(ExperimentConfig(
            experiment="divergence-variation-multi", hurst=h, grid_sizes=grids,
            replications=m, master_seed=19, dimension=1,
            params={"integrand": "radial_quadratic", "xi_draws": 2000},
        ))
        scalar = run_experiment(ExperimentConfig(
            experiment="divergence-variation", hurst=h, grid_sizes=grids, replications=m,
            master_seed=19, params={"integrand": "quadratic"},
        ))
        assert multi.rows[0][1] == scalar.rows[0][1]
        assert multi.rows[0][2] == pytest.approx(scalar.rows[0][2], rel=1e-12)

    @pytest.mark.parametrize(
        "experiment, labels, dimension",
        [
            ("divergence-variation", ("identity", "linear_sum"), 1),
            ("divergence-variation", ("quadratic", "radial_quadratic"), 1),
            ("divergence-variation-multi", ("identity", "linear_sum"), 3),
            ("divergence-variation-multi", ("quadratic", "radial_quadratic"), 3),
        ],
    )
    def test_alias_labels_give_the_same_rows(self, experiment, labels, dimension):
        # divergence-variation has no xi target, so no xi_draws to set
        xi = {"xi_draws": 100} if experiment == "divergence-variation-multi" else {}
        reports = [
            run_experiment(ExperimentConfig(
                experiment=experiment, hurst=0.45, grid_sizes=[16, 64], replications=6,
                master_seed=29, dimension=dimension, params={"integrand": label, **xi},
            ))
            for label in labels
        ]
        assert reports[0].rows == reports[1].rows
        assert [r.meta["integrand"] for r in reports] == list(labels)

    def test_cubic_runs_at_dimension_three(self):
        report = run_experiment(ExperimentConfig(
            experiment="divergence-variation-multi", hurst=0.45, grid_sizes=[32, 128],
            replications=8, master_seed=31, dimension=3,
            params={"integrand": "cubic", "xi_draws": 400},
        ))
        assert report.meta["integrand"] == "cubic" and report.meta["dimension"] == 3
        assert all(math.isfinite(v) for v in report.rows[-1])
        check = report.extra
        assert check["xi_check_n"] == 128 and check["xi_check_margin"] >= 0
        assert check["xi_check_estimate"] == pytest.approx(
            check["xi_check_closed_form"], abs=3 * check["xi_check_se"]
        )

    def test_dual_targets_agree(self):
        report = run_experiment(ExperimentConfig(
            experiment="divergence-variation-multi", hurst=0.45, grid_sizes=[256],
            replications=20, master_seed=19, dimension=3,
            params={"integrand": "radial_quadratic"},
        ))
        check = report.extra
        assert check["xi_check_estimate"] == pytest.approx(
            check["xi_check_closed_form"], abs=3 * check["xi_check_se"]
        )
        assert report.flags["targets_agree_3se"]

    @pytest.mark.parametrize(
        "h, n, horizon, row", [(0.45, 64, 1.0, (1, 0, 0)), (0.3, 4096, 0.5, (1 / 3, 2 / 3, 2 / 3))]
    )
    def test_unit_integrand_nu_functional(self, h, n, horizon, row):
        # For constant unit u, <u, xi> is standard normal under the
        # Gaussian measure, so the nu-integral equals e_H * nodes * dt = e_H * T.
        u = np.tile(np.array(row, dtype=float), (n, 1))
        est, se = xi_mc_target(u, horizon / n, 1.0 / h, SeedSpec(77).stream(lane=1), 400)
        assert 0 < se and abs(est - e_H(h) * horizon) < 3 * se

    def test_sampled_integrand_matches_the_closed_form(self):
        # u = B on one 3-d path: not unit, so each node weighs |u_i|^p
        h, n = 0.45, 256
        path = sample_fbm_multi(h, 3, UniformGrid(1.0, n), SeedSpec(83, 0))
        u = path.values[1:]
        est, se = xi_mc_target(u, 1.0 / n, 1.0 / h, SeedSpec(83).stream(lane=1), 128)
        closed = e_H(h) * math.fsum(np.linalg.norm(u, axis=1) ** (1.0 / h)) / n
        assert 0 < se and abs(est - closed) < 3 * se

    def test_standard_error_falls_with_the_node_count(self):
        # every node draws its own direction, so the n terms of a pair
        # average out; one direction per pair kept the s.e. flat in n
        h, horizon = 0.3, 1.0
        ses = []
        for n in (2, 4, 8, 16):
            u = INTEGRANDS["linear_sum"].gradient(np.zeros((n, 3)))
            ses.append(
                xi_mc_target(u, horizon / n, 1.0 / h, SeedSpec(84).stream(lane=1), 1000)[1]
            )
        assert all(b < a for a, b in zip(ses, ses[1:])), ses
        assert ses[-1] < 0.5 * ses[0], ses

    def test_non_unit_integrand_has_a_positive_standard_error(self):
        u = np.random.default_rng(5).standard_normal((64, 3))
        est, se = xi_mc_target(u, 1.0 / 64, 1.0 / 0.45, SeedSpec(79).stream(lane=1), 200)
        assert math.isfinite(est) and math.isfinite(se) and se > 0

    def test_dimension_one_target_is_the_closed_form_to_rounding(self):
        h, n = 0.35, 512
        u = np.random.default_rng(6).standard_normal((n, 1))
        est, se = xi_mc_target(u, 1.0 / n, 1.0 / h, SeedSpec(80).stream(lane=1), 400)
        closed = e_H(h) * math.fsum(np.abs(u[:, 0]) ** (1.0 / h)) / n
        assert est == pytest.approx(closed, rel=1e-13)
        assert se <= 1e-15 * est

    @pytest.mark.parametrize("dimension", [1, 3])
    def test_nan_in_the_integrand_aborts_the_cross_check(self, dimension):
        u = np.ones((16, dimension))
        u[5, 0] = math.nan
        with pytest.raises(NumericalError, match="xi target of the path is non-finite"):
            xi_mc_target(u, 1.0 / 16, 1.0 / 0.45, SeedSpec(81).stream(lane=1), 100)
        # a NaN target that reaches the cross-check aborts it too
        with pytest.raises(NumericalError, match="disagree"):
            _cross_check(e_H(0.45), math.nan, math.nan, 16, dimension)

    def test_dimension_one_cross_check_is_a_rounding_bound(self):
        # se is 0 at d = 1, so 3 s.e. would reject a last-bit difference
        assert _cross_check(2.0, 2.0 * (1 + 1e-14), 0.0, 64, 1)["xi_check_margin"] > 0
        with pytest.raises(NumericalError, match="disagree"):
            _cross_check(2.0, 2.0 * (1 + 1e-9), 0.0, 64, 1)
        # d >= 2 keeps 3 s.e.: the same last-bit difference is a miss, not an abort
        assert _cross_check(2.0, 2.0 * (1 + 1e-14), 0.0, 64, 2)["xi_check_margin"] < 0

    @pytest.mark.parametrize("label", sorted(INTEGRANDS))
    def test_dimension_one_run_passes_for_every_integrand(self, label):
        config = ExperimentConfig(
            experiment="divergence-variation-multi", hurst=0.4, grid_sizes=[64, 256],
            replications=6, master_seed=41, dimension=1, params={"integrand": label},
        )
        if label == "constant":  # the cross-check passes (0 = 0), the zero target does not
            with pytest.raises(DegenerateInputError):
                run_experiment(config)
            return
        report = run_experiment(config)
        assert report.flags["targets_agree_3se"]
        check = report.extra
        assert check["xi_check_n"] == 256 and check["xi_check_margin"] >= 0
        closed = check["xi_check_closed_form"]
        assert check["xi_check_estimate"] == pytest.approx(closed, rel=1e-12)
        assert check["xi_check_se"] <= 1e-12 * closed

    # at workers 2 the check runs in a pool process: its error comes back pickled
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_dimension_one_xi_target_off_by_1e9_exits_3(self, monkeypatch, tmp_path, workers):
        exact = ito.xi_mc_target

        def off(*args, **kwargs):
            est, se = exact(*args, **kwargs)
            return est * (1 + 1e-9), se

        monkeypatch.setattr(ito, "xi_mc_target", off)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "experiment": "divergence-variation-multi", "hurst": 0.4, "dimension": 1,
            "grid_sizes": [64], "replications": 4, "params": {"integrand": "quadratic"},
        }))
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--workers", workers])
        assert result.exit_code == 3, result.output
        assert "disagree" in result.output

    def test_cross_check_miss_is_a_negative_margin(self):
        # closed form 1, xi target 2: a statistical miss at d >= 2, left to the flag
        check = _cross_check(1.0, 2.0, 1e-6, 64, 3)
        assert check["xi_check_margin"] == pytest.approx(3e-6 - 1.0, rel=1e-15)
        assert check["xi_check_estimate"] == 2.0 and check["xi_check_se"] == 1e-6

    # at workers 2 the check runs in a pool process and its extra comes back pickled
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_xi_target_4se_off_at_dimension_3_exits_1(self, monkeypatch, tmp_path, workers):
        exact = ito.xi_mc_target

        def off(*args, **kwargs):
            _, se = exact(*args, **kwargs)
            u, dt, q = args[:3]
            closed = ito._path_target(u, 1.0 / q, dt)
            return closed + 4 * se, se

        monkeypatch.setattr(ito, "xi_mc_target", off)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "experiment": "divergence-variation-multi", "hurst": 0.4, "dimension": 3,
            "grid_sizes": [64], "replications": 4, "params": {"integrand": "quadratic"},
        }))
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--workers", workers])
        assert result.exit_code == 1, result.output
        assert '"targets_agree_3se": false' in result.stdout  # the report is written
        assert "# targets_agree_3se: FAIL" in result.stderr

    def test_cross_check_nan_se_aborts(self):
        with pytest.raises(NumericalError, match="disagree"):  # an s.e. that checks nothing
            _cross_check(1.0, 1.0, math.nan, 64, 3)

    def test_cross_check_nan_target_on_one_path_aborts(self):
        # the check reads one path, so a NaN closed form on it is a failure
        with pytest.raises(NumericalError, match="disagree"):
            _cross_check(math.nan, 1.0, 0.1, 64, 3)

    @pytest.mark.parametrize("draws", [0, 2, 3])
    def test_xi_draws_without_a_standard_error_rejected(self, draws):
        u = np.ones((8, 1))
        with pytest.raises(ConfigError, match="xi_draws must be an even count >= 4"):
            xi_mc_target(u, 1.0 / 8, 1.0 / 0.45, SeedSpec(77).stream(lane=1), draws)

    def test_xi_draws_numpy_cannot_hold_rejected(self):
        # 2^61 pair values pass numpy's largest array: numpy's raw ValueError before
        with pytest.raises(ConfigError, match="xi_draws must not exceed"):
            xi_mc_target(np.ones((8, 1)), 1 / 8, 1 / 0.45, SeedSpec(1).stream(lane=1), 2**62)


def _unit_rows(n: int, d: int) -> np.ndarray:
    v = np.random.default_rng(n).standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestXiSubBlocks:
    # The block cap decides how many pairs are drawn and reduced at once.
    # Caps of 1 pair, 7 pairs and all pairs split the draws differently from
    # the default, which holds 5 pairs of n = 4096 in d = 3 (so 100 pairs
    # take 20 blocks) and 85 of n = 257 (5,000 pairs take 59).
    @pytest.mark.parametrize("n, draws", [(4096, 200), (257, 10_000), (4096, 6)])
    def test_width_leaves_result_bit_equal(self, n, draws, monkeypatch):
        u = _unit_rows(n, 3)
        got = {xi_mc_target(u, 1.0 / n, 1.0 / 0.45, SeedSpec(31).stream(lane=1), draws)}
        for pairs_per_block in (1, 7, draws // 2):
            monkeypatch.setattr(ito, "_XI_BLOCK_NORMALS", pairs_per_block * 3 * n)
            got.add(xi_mc_target(u, 1.0 / n, 1.0 / 0.45, SeedSpec(31).stream(lane=1), draws))
        assert len(got) == 1, got

    def test_work_array_is_bounded(self):
        n, draws = 4096, 1000
        assert draws // 2 > ito._XI_BLOCK_NORMALS // (3 * n)  # more than one block
        u = _unit_rows(n, 3)
        stream = SeedSpec(31).stream(lane=1)
        tracemalloc.start()
        try:
            xi_mc_target(u, 1.0 / n, 1.0 / 0.45, stream, draws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the normals of all 500 pairs alone are 49 MB
        assert peak < 16e6, peak


# Criteria 05 and 06: the check reads replication 0's path at n = 4096 alone,
# so two replications check what the criteria's 200 do.
_CRITERIA = {"divergence-variation-multi": 104, "theta-variation": 105}


def _criterion_config(experiment: str) -> ExperimentConfig:
    return ExperimentConfig(
        experiment=experiment, hurst=0.45, dimension=3, grid_sizes=[4096], replications=2,
        master_seed=_CRITERIA[experiment],
    )


def _c_p(d: int, p: float) -> float:
    return 2 ** (p / 2) * math.gamma((d + p) / 2) / math.gamma(d / 2)


class _CubeNormals:
    """A stream whose normals are uniform on [-1, 1]: normalised, they give
    directions that are not uniform on the sphere."""

    def __init__(self, stream):
        self.stream = stream

    def standard_normal(self, out):
        out[...] = self.stream.uniform(-1.0, 1.0, out.shape)


def _c_p_of_d_minus_1(exact):
    # 0.65 times the true c_p at H 0.45 and d 3
    def target(u, dt, p, stream, draws):
        scale = _c_p(u.shape[1] - 1, p) / _c_p(u.shape[1], p)
        return tuple(scale * v for v in exact(u, dt, p, stream, draws))

    return target


def _cube_directions(exact):
    # E|theta_1|^p is 1.0% low at H 0.45 along a coordinate axis
    return lambda u, dt, p, stream, draws: exact(u, dt, p, _CubeNormals(stream), draws)


class TestNuCheckPower:
    @pytest.mark.parametrize("experiment", sorted(_CRITERIA))
    def test_true_xi_law_passes(self, experiment):
        report = run_experiment(_criterion_config(experiment))
        assert report.flags["targets_agree_3se"] and report.extra["xi_check_n"] == 4096

    @pytest.mark.parametrize("law", [_c_p_of_d_minus_1, _cube_directions])
    @pytest.mark.parametrize("experiment", sorted(_CRITERIA))
    def test_wrong_xi_law_fails(self, monkeypatch, experiment, law):
        monkeypatch.setattr(ito, "xi_mc_target", law(ito.xi_mc_target))
        report = run_experiment(_criterion_config(experiment))
        assert not report.flags["targets_agree_3se"] and report.extra["xi_check_margin"] < 0

    def test_one_xi_target_per_config(self, monkeypatch, tmp_path):
        # pool workers are forked with the wrapper, so a call there is logged too
        exact, log = ito.xi_mc_target, tmp_path / "calls"

        def logged(u, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{len(u)}\n")
            return exact(u, *args, **kwargs)

        monkeypatch.setattr(ito, "xi_mc_target", logged)
        for experiment in sorted(_CRITERIA):
            log.write_text("")
            config = ExperimentConfig(
                experiment=experiment, hurst=0.45, dimension=3, grid_sizes=[16, 32],
                replications=6, params={"xi_draws": 8},
            )
            assert run_experiment(config, workers=2).flags["targets_agree_3se"]
            assert log.read_text().split() == ["32"], experiment


class TestLpScaling:
    def test_identity_slope_near_one(self):
        report = run_experiment(ExperimentConfig(
            experiment="lp-scaling", hurst=0.45, replications=600, master_seed=23,
            params={"integrand": "identity", "grid_size": 1024},
        ))
        assert abs(report.extra["slope"] - 1.0) < 0.1
        assert report.extra["r_squared"] > 0.99

    def test_default_intervals_respect_origin_gap(self):
        for a, b in default_interval_pairs(2.0):
            assert a >= 0.5
            assert b > a

    def test_alias_labels_give_the_same_rows(self):
        reports = [
            run_experiment(ExperimentConfig(
                experiment="lp-scaling", hurst=0.45, replications=8, master_seed=23,
                params={"integrand": label, "grid_size": 256},
            ))
            for label in ("quadratic", "radial_quadratic")
        ]
        assert reports[0].rows == reports[1].rows
        assert reports[1].meta["integrand"] == "radial_quadratic"

    def test_constant_potential_rejected_as_degenerate(self):
        with pytest.raises(DegenerateInputError):
            run_experiment(ExperimentConfig(
                experiment="lp-scaling", hurst=0.45, replications=10, master_seed=0,
                params={"integrand": "constant", "grid_size": 512},
            ))

    def test_off_grid_interval_rejected(self):
        # T/4 + T/256 is a node only of grids whose size is a multiple of 256
        with pytest.raises(ConfigError, match="grid_size a multiple of 256"):
            run_experiment(ExperimentConfig(
                experiment="lp-scaling", hurst=0.45, replications=10, master_seed=0,
                params={"integrand": "identity", "grid_size": 64},
            ))
