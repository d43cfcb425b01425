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
from rvlab.errors import ConfigError, DegenerateInputError, DomainError, NumericalError
from rvlab.fbm import sample_fbm_circulant, sample_fbm_multi
from rvlab.ito import (
    INTEGRANDS,
    IntegrandSpec,
    _cross_check,
    default_interval_pairs,
    divergence_reading,
    divergence_via_ito,
    divergence_via_ito_multi,
    register_integrand,
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


class TestIntegrandRegistry:
    def test_whitelist_contents(self):
        assert set(INTEGRANDS) == {
            "identity", "linear_sum", "quadratic", "radial_quadratic", "cubic", "constant"
        }
        assert all(spec.label == label for label, spec in INTEGRANDS.items())

    def test_bad_second_derivative_rejected(self):
        bad = IntegrandSpec(
            f=lambda x: 0.5 * np.sum(np.asarray(x) ** 2, axis=-1),
            gradient=lambda x: np.asarray(x),
            laplacian=lambda x: -np.ones(np.shape(x)[:-1]),
            label="broken",
        )
        with pytest.raises(ConfigError, match="laplacian"):
            register_integrand(bad)
        assert "broken" not in INTEGRANDS

    def test_bad_gradient_rejected(self):
        bad = IntegrandSpec(
            f=lambda x: np.sum(np.asarray(x) ** 2, axis=-1),
            gradient=lambda x: np.asarray(x),  # true gradient is 2x
            laplacian=lambda x: 2.0 * np.asarray(x).shape[-1]
            * np.ones(np.asarray(x).shape[:-1]),
            label="broken_multi",
        )
        with pytest.raises(ConfigError, match="gradient"):
            register_integrand(bad)

    def test_spec_wrong_only_at_dimension_one_rejected(self):
        # the Laplacian of |x|^2 / 2 is d, not 3: right at d = 3 only
        bad = IntegrandSpec(
            f=lambda x: 0.5 * np.sum(np.asarray(x) ** 2, axis=-1),
            gradient=lambda x: np.asarray(x),
            laplacian=lambda x: np.full(np.shape(x)[:-1], 3.0),
            label="three_dim_only",
        )
        with pytest.raises(ConfigError, match="laplacian"):
            register_integrand(bad)
        assert "three_dim_only" not in INTEGRANDS

    def test_duplicate_label_rejected(self):
        spec = INTEGRANDS["quadratic"]
        with pytest.raises(ConfigError, match="already registered"):
            register_integrand(spec)

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
        combined = IntegrandSpec(
            f=lambda x: np.sum(0.5 * np.asarray(x) ** 2 + np.asarray(x) ** 3 / 3.0, axis=-1),
            gradient=lambda x: np.asarray(x) + np.asarray(x) ** 2,
            laplacian=lambda x: np.sum(1.0 + 2.0 * np.asarray(x), axis=-1),
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
        explosive = IntegrandSpec(
            f=lambda x: np.exp(1e4 * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)),
            gradient=lambda x: x,
            laplacian=lambda x: np.sum(x, axis=-1),
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
        x = divergence_via_ito_multi(INTEGRANDS["radial_quadratic"], path, h)
        t = grid.nodes()
        expected = 0.5 * (np.sum(path.values**2, axis=1) - d * t ** (2 * h))
        assert np.allclose(x.values, expected, rtol=1e-11, atol=1e-13)

    def test_linear_potential_sums_components(self):
        h, d = 0.4, 2
        grid = UniformGrid(1.0, 64)
        path = sample_fbm_multi(h, d, grid, SeedSpec(3, 1))
        x = divergence_via_ito_multi(INTEGRANDS["linear_sum"], path, h)
        assert np.allclose(x.values, path.values.sum(axis=1), rtol=1e-12, atol=0)

    def test_dimension_one_reduces_to_scalar_case(self):
        h = 0.45
        grid = UniformGrid(1.0, 64)
        multi = sample_fbm_multi(h, 1, grid, SeedSpec(3, 2))
        scalar = sample_fbm_circulant(h, grid, SeedSpec(3, 2))
        x_multi = divergence_via_ito_multi(INTEGRANDS["radial_quadratic"], multi, h)
        x_scalar = divergence_via_ito(INTEGRANDS["quadratic"], scalar, h)
        assert np.array_equal(x_multi.values, x_scalar.values)

    def test_cubic_closed_form(self):
        # F = sum x_i^3 / 3 has Laplacian 2 sum x_i, so
        # X_t = F(B_t) - 2H int_0^t sum_i B^i_s s^{2H-1} ds
        h, d = 0.4, 3
        grid = UniformGrid(1.0, 64)
        path = sample_fbm_multi(h, d, grid, SeedSpec(3, 3))
        x = divergence_via_ito_multi(INTEGRANDS["cubic"], path, h)
        drift = weighted_cumulative(path.values.sum(axis=1), grid, h)
        expected = np.sum(path.values**3, axis=1) / 3.0 - 2 * h * drift
        assert np.allclose(x.values, expected, rtol=1e-12, atol=1e-14)


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
        row = report.rows[-1]
        assert all(math.isfinite(v) for v in row)
        assert row[6] == pytest.approx(row[2], abs=3 * row[7])

    def test_dual_targets_agree(self):
        report = run_experiment(ExperimentConfig(
            experiment="divergence-variation-multi", hurst=0.45, grid_sizes=[256],
            replications=20, master_seed=19, dimension=3,
            params={"integrand": "radial_quadratic", "xi_draws": 4000},
        ))
        row = report.rows[0]
        assert row[6] == pytest.approx(row[2], abs=3 * row[7])
        assert report.flags["targets_agree_3se"]

    @pytest.mark.parametrize(
        "h, n, horizon, row", [(0.45, 64, 1.0, (1, 0, 0)), (0.3, 4096, 0.5, (1 / 3, 2 / 3, 2 / 3))]
    )
    def test_unit_integrand_nu_functional(self, h, n, horizon, row):
        # For constant unit u, <u, xi> is standard normal under the
        # Gaussian measure, so the nu-integral equals e_H * nodes * dt = e_H * T.
        u = np.tile(np.array(row, dtype=float), (n, 1))
        est, se = xi_mc_target(u, horizon / n, 1.0 / h, SeedSpec(77).stream(lane=1), 20_000)
        assert 0 < se and abs(est - e_H(h) * horizon) < 3 * se

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
            _cross_check([(1.0, e_H(0.45), 0.0, math.nan, math.nan)], 16, dimension)

    def test_dimension_one_cross_check_is_a_rounding_bound(self):
        # se is 0 at d = 1, so 3 s.e. would reject a last-bit difference
        _cross_check([(1.0, 2.0, 0.0, 2.0 * (1 + 1e-14), 0.0)], 64, 1)
        with pytest.raises(NumericalError, match="disagree"):
            _cross_check([(1.0, 2.0, 0.0, 2.0 * (1 + 1e-9), 0.0)], 64, 1)
        with pytest.raises(NumericalError, match="disagree"):  # d >= 2 keeps 3 s.e.
            _cross_check([(1.0, 2.0, 0.0, 2.0 * (1 + 1e-14), 0.0)], 64, 2)

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
        for row in report.rows:
            assert row[6] == pytest.approx(row[2], rel=1e-12) and row[7] <= 1e-12 * row[2]

    def test_dimension_one_xi_target_off_by_1e9_exits_3(self, monkeypatch, tmp_path):
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
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--workers", "1"])
        assert result.exit_code == 3, result.output
        assert "disagree" in result.output

    def test_cross_check_abort(self):
        fake = [(1.0, 1.0, 0.0, 2.0, 1e-6)]  # target_a = 1, target_mc = 2
        with pytest.raises(NumericalError, match="disagree"):
            _cross_check(fake, 64, 3)

    def test_cross_check_nan_se_aborts(self):
        fake = [(1.0, 1.0, 0.0, 1.0, math.nan)]  # a standard error that checks nothing
        with pytest.raises(NumericalError, match="disagree"):
            _cross_check(fake, 64, 3)

    def test_cross_check_nan_target_on_one_path_aborts(self):
        # every replication carries xi, so a NaN is a failure, not a skipped path
        fake = [(1.0, 1.0, 0.0, 1.0, 0.1), (1.0, 1.0, 0.0, math.nan, math.nan)]
        with pytest.raises(NumericalError, match="disagree"):
            _cross_check(fake, 64, 3)

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

    def test_rejects_few_widths(self):
        pairs = [(0.25, 0.5), (0.25, 0.375)]
        with pytest.raises(ConfigError, match="3 distinct"):
            run_experiment(ExperimentConfig(
                experiment="lp-scaling", hurst=0.45, replications=10, master_seed=0,
                params={"integrand": "identity", "intervals": pairs},
            ))

    def test_rejects_intervals_near_origin(self):
        pairs = [(0.1, 0.2), (0.1, 0.15), (0.1, 0.125)]
        with pytest.raises(ConfigError, match="T/4"):
            run_experiment(ExperimentConfig(
                experiment="lp-scaling", hurst=0.45, replications=10, master_seed=0,
                params={"integrand": "identity", "intervals": pairs},
            ))

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
        pairs = [(0.25, 0.3111), (0.25, 0.5), (0.25, 0.375)]
        with pytest.raises(DomainError):
            run_experiment(ExperimentConfig(
                experiment="lp-scaling", hurst=0.45, replications=10, master_seed=0,
                params={"integrand": "identity", "grid_size": 64, "intervals": pairs},
            ))
