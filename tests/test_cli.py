"""CLI tests through click's runner: subcommands, options and exit codes."""

import ast
import dataclasses
import json
import pathlib
import pickle
import sys
import warnings

import pytest
from click.testing import CliRunner

import rvlab
from rvlab import errors, fbm
from rvlab.cli import _exit_code, main
from rvlab.errors import ConfigError, GateError, NumericalError
from rvlab.harness import ExperimentConfig, declared, registered_experiments
from test_harness import GOLDEN, GOLDEN_CONFIGS

FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


@pytest.fixture()
def runner():
    return CliRunner()


class TestFbmCommand:
    def test_writes_path_csv(self, runner, tmp_path):
        out = tmp_path / "path.csv"
        result = runner.invoke(
            main,
            ["fbm", "--hurst", "0.3", "--grid-size", "16", "--seed", "3",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 18

    def test_multidimensional_header(self, runner):
        result = runner.invoke(
            main, ["fbm", "--hurst", "0.3", "--grid-size", "4", "--dim", "2"]
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "t,v1,v2"

    @pytest.mark.parametrize(
        "name, args",
        [
            ("d1-circulant", ["--hurst", "0.3", "--grid-size", "16", "--method", "circulant",
                              "--seed", "3", "--replication", "2"]),
            ("d1-cholesky", ["--hurst", "0.3", "--grid-size", "16", "--method", "cholesky",
                             "--seed", "3", "--replication", "2"]),
            ("d2-cholesky", ["--hurst", "0.4", "--grid-size", "8", "--dim", "2",
                             "--method", "cholesky", "--seed", "5", "--replication", "1"]),
            ("d3", ["--hurst", "0.25", "--horizon", "2.5", "--grid-size", "8", "--dim", "3",
                    "--seed", "7", "--replication", "4"]),
            ("n1", ["--hurst", "0.45", "--grid-size", "1", "--seed", "11", "--replication", "3"]),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_path_golden_bytes(self, runner, name, args):
        expected = (GOLDEN / "fbm" / f"{name}.csv").read_text(encoding="utf-8")
        result = runner.invoke(main, ["fbm", *args])
        assert result.exit_code == 0, result.output
        assert result.output == expected

    def test_same_seed_same_output(self, runner):
        args = ["fbm", "--hurst", "0.35", "--grid-size", "8", "--seed", "11"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_bad_hurst_is_config_error(self, runner):
        result = runner.invoke(main, ["fbm", "--hurst", "1.5", "--grid-size", "4"])
        assert result.exit_code == 2

    def test_infinite_horizon_exits_2(self, runner):
        result = runner.invoke(
            main, ["fbm", "--hurst", "0.3", "--horizon", "inf", "--grid-size", "4"]
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: horizon must be positive and finite")

    def test_unwritable_out_exits_2(self, runner, tmp_path):
        out = tmp_path / "missing" / "path.csv"
        result = runner.invoke(main, ["fbm", "--hurst", "0.3", "--grid-size", "4", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: cannot write")
        assert result.exception is None or isinstance(result.exception, SystemExit)


class TestExperimentCommands:
    def test_variation_small_run(self, runner, tmp_path):
        out = tmp_path / "var.csv"
        result = runner.invoke(
            main,
            ["fbm-variation", "--hurst", "0.3", "--grid-sizes", "16,32", "--replications", "12",
             "--seed", "5", "--workers", "1", "--out", str(out)],
        )
        # a desk-toy run emits a valid report; the acceptance tolerance may
        # legitimately fail at this scale (exit 1)
        assert result.exit_code in (0, 1), result.output
        text = out.read_text()
        assert "n,estimate,target,abs_err,rel_err,stderr" in text
        assert "rel_err_final_ok" in text

    def test_variation_tolerance_failure_exit_code(self, runner):
        # 12 paths on coarse grids cannot reach 5% relative error
        result = runner.invoke(
            main,
            ["fbm-variation", "--hurst", "0.3", "--grid-sizes", "8,16", "--replications", "12",
             "--seed", "5", "--workers", "1"],
        )
        assert result.exit_code == 1

    def test_divergence_variation_rejects_dimension(self, runner):
        # the d-dimensional integrals are divergence-variation-multi's
        result = runner.invoke(
            main,
            ["divergence-variation", "--hurst", "0.45", "--dimension", "3",
             "--replications", "4", "--workers", "1"],
        )
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output and "--dimension" in result.output

    @pytest.mark.parametrize(
        "spec, dim, experiment",
        [("quadratic", "3", "divergence-variation-multi"),
         ("radial_quadratic", "1", "divergence-variation")],
    )
    def test_ito_check_runs_every_label_in_every_dim(self, runner, spec, dim, experiment):
        # only the d-dimensional experiment reads --dimension
        dimension = ["--dimension", dim] if experiment.endswith("-multi") else []
        result = runner.invoke(
            main,
            [experiment, "--hurst", "0.45", "--integrand", spec, *dimension,
             "--grid-sizes", "16,32", "--replications", "6", "--seed", "5", "--workers", "1",
             "--format", "json"],
        )
        assert result.exit_code in (0, 1), result.output
        doc = json.loads(result.output[: result.output.rindex("}") + 1])
        assert doc["meta"]["config"]["experiment"] == experiment
        assert doc["meta"]["config"]["dimension"] == int(dim)
        assert doc["meta"]["integrand"] == spec

    def test_ito_check_scaling_rejects_dim(self, runner):
        # lp-scaling is one-dimensional
        result = runner.invoke(
            main,
            ["lp-scaling", "--hurst", "0.45", "--dimension", "3", "--replications", "4",
             "--workers", "1"],
        )
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output and "--dimension" in result.output

    def test_ito_check_unknown_spec(self, runner):
        result = runner.invoke(
            main, ["divergence-variation", "--hurst", "0.45", "--integrand", "septic",
                   "--grid-sizes", "16", "--replications", "4", "--workers", "1"],
        )
        assert result.exit_code == 2
        assert "septic" in result.output

    def test_ito_check_help_enumerates_whitelist(self, runner):
        result = runner.invoke(main, ["divergence-variation", "--help"])
        assert "quadratic" in result.output
        assert "radial_quadratic" in result.output

    def test_bessel_gate_error(self, runner):
        result = runner.invoke(
            main,
            ["theta-variation", "--dimension", "3", "--hurst", "0.35", "--grid-sizes", "16",
             "--replications", "4", "--workers", "1"],
        )
        assert result.exit_code == 2
        assert "2dH" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["fbm-variation", "--grid-sizes", "16,x"],
            ["negative-moments", "--t-list", "a,b"],
            ["self-similarity", "--a-list", "x"],
        ],
        ids=lambda args: args[-2],
    )
    def test_bad_comma_list_exits_2(self, runner, args):
        result = runner.invoke(
            main, [*args, "--hurst", "0.45", "--replications", "4", "--workers", "1"]
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: bad {args[-2]} value")

    @pytest.mark.parametrize(
        "args, where",
        [
            (["fbm-variation", "--grid-sizes", "16,x"], "Expecting value at char 3"),
            (["negative-moments", "--t-list", "0.25,"], "Expecting value at the end"),
        ],
        ids=["grid-sizes", "t-list"],
    )
    def test_bad_list_error_position_is_in_the_typed_value(self, runner, args, where):
        result = runner.invoke(main, [*args, "--hurst", "0.45", "--workers", "1"])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines()[0] == f"error: bad {args[-2]} value {args[-1]!r}: {where}"

    @pytest.mark.parametrize(
        "args",
        [
            ["theta-variation", "--q", "3"],
            ["negative-moments", "--grid-sizes", "64"],
        ],
        ids=["q", "grid-sizes"],
    )
    def test_bessel_value_the_experiment_does_not_read_exits_2(self, runner, args):
        # an experiment's subcommand has no option for a value it does not read
        result = runner.invoke(
            main, [*args, "--hurst", "0.45", "--dimension", "3", "--workers", "1"]
        )
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output and args[1] in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["lp-scaling", "--horizon", "1e-321", "--replications", "4"],
            ["kernel-check", "--horizon", "5e-324", "--lattice", "3"],
            ["covariance-check", "--horizon", "1e-321", "--grid-sizes", "4096",
             "--replications", "2"],
        ],
        ids=lambda args: args[0],
    )
    def test_cell_width_underflow_exits_2(self, runner, args):
        result = runner.invoke(main, [*args, "--workers", "1"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: the cell width of horizon")
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "args",
        [["divergence-variation"], ["divergence-variation-multi", "--dimension", "2"]],
        ids=lambda args: args[0],
    )
    def test_per_path_target_underflow_names_the_integrand(self, runner, args):
        # |B|^{2/H} dt underflows at horizon 1e-300 although u = B^2 does not vanish
        result = runner.invoke(main, [*args, "--integrand", "cubic", "--horizon", "1e-300",
                                      "--hurst", "0.45", "--grid-sizes", "16",
                                      "--replications", "2", "--workers", "1"])
        assert result.exit_code == 3, result.output
        assert result.output.startswith(
            "error: the variation target of integrand 'cubic' underflows to 0"
        )
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_xi_constant_overflow_exits_3(self, runner):
        # e_H = E|Z|^{1/H} is finite at H 0.00333, but c_p = E||xi||^{1/H} at d = 3
        # is not; it raised a raw OverflowError from xi_mc_target
        result = runner.invoke(main, ["divergence-variation-multi", "--hurst", "0.00333",
                                      "--dimension", "3", "--grid-sizes", "16",
                                      "--replications", "2", "--xi-draws", "4",
                                      "--workers", "1"])
        assert result.exit_code == 3, result.output
        assert result.output == (
            "error: the Gaussian moment E||Z||^p at d = 3, p = 300.3003003003003 "
            "overflows a double\n"
        )
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "args, error",
        [
            # 2H underflows: the first cell integral of s^(2H-1) is 1 / 1e-323 = inf;
            # lp-scaling printed NaN rows and exited 1, both leaked numpy warnings
            (["lp-scaling", "--hurst", "5e-324", "--grid-size", "256"],
             "the cell integrals of s^(2H-1) are not finite doubles at H = 5e-324"),
            (["fbm-variation", "--hurst", "5e-324", "--grid-sizes", "16"],
             "the cell integrals of s^(2H-1) are not finite doubles at H = 5e-324"),
            # |X_b - X_a|^(1e300) overflows; it was diagnosed as a constant potential
            (["lp-scaling", "--hurst", "1e-300", "--grid-size", "256"],
             "|X_b - X_a|^(1/H) = inf at H = 1e-300 on [0.25, 0.3125]"),
        ],
        ids=["lp-scaling-5e-324", "fbm-variation-5e-324", "lp-scaling-1e-300"],
    )
    def test_tiny_hurst_exits_3_without_warnings(self, runner, args, error):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [*args, "--replications", "2", "--workers", "1"])
        assert [str(w.message) for w in caught] == []
        assert result.exit_code == 3, result.output
        assert len(result.output.splitlines()) == 1
        assert result.output.startswith(f"error: {error}")
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_constant_potential_is_still_degenerate(self, runner):
        result = runner.invoke(main, ["lp-scaling", "--integrand", "constant", "--grid-size",
                                      "256", "--replications", "2", "--workers", "1"])
        assert result.exit_code == 2, result.output
        assert result.output == (
            "error: all sampled moments vanish for some interval; the integrand is "
            "degenerate (constant potential?)\n"
        )

    @pytest.mark.parametrize(
        "q, t_list, error",
        [
            ("399.5", "0.5,1",
             "the Gaussian moment E||Z||^p at d = 400, p = -399.5 underflows to 0"),
            # K_q is 3.4e-279, but K_q 4^(-Hq) rounds to 0
            ("228", "1,4",
             "a target K_q t^(-Hq) over t_list [1.0, 4.0] is not a positive finite double"),
        ],
        ids=["k_q", "k_q-t^-Hq"],
    )
    def test_moment_target_underflow_exits_3_before_sampling(
        self, runner, monkeypatch, q, t_list, error
    ):
        # every replication was sampled before abs_err / target raised a raw
        # ZeroDivisionError
        def sampled(*args, **kwargs):
            raise AssertionError("sampled a path")

        monkeypatch.setattr(fbm, "sample_fbm_circulant", sampled)
        result = runner.invoke(main, ["negative-moments", "--hurst", "0.45", "--dimension", "400",
                                      "--q", q, "--replications", "2", "--t-list", t_list,
                                      "--workers", "1"])
        assert result.exit_code == 3, result.output
        assert result.output == f"error: {error}\n"
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "args",
        [
            ["fbm", "--hurst", "0.3", "--grid-size", str(10**310)],
            ["lp-scaling", "--grid-size", str(10**310), "--replications", "4", "--workers", "1"],
            ["fbm-variation", "--grid-sizes", str(10**310), "--replications", "4",
             "--workers", "1"],
        ],
        ids=lambda args: args[0],
    )
    def test_grid_size_above_the_largest_double_exits_2(self, runner, args):
        # horizon / n converts n to float, which raised a raw OverflowError
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: grid size must not exceed")
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_moment_time_off_every_grid_exits_2(self, runner):
        # the coarsest grid of [0, 1] with 1e-10 as a node has 1e10 cells;
        # node 0, where R = 0, is not 1e-10
        result = runner.invoke(
            main, ["negative-moments", "--dimension", "3", "--t-list", "1e-10,1",
                   "--replications", "4", "--workers", "1"],
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ")
        assert "does not fit a uniform grid" in result.output

    def test_kernel_check_rejects_half(self, runner):
        result = runner.invoke(main, ["kernel-check", "--hurst", "0.5"])
        assert result.exit_code == 2
        assert "requires H < 1/2" in result.output

    def test_kernel_check_emits_table(self, runner):
        result = runner.invoke(
            main, ["kernel-check", "--hurst", "0.3", "--lattice", "2",
                   "--rtol", "1e-6"],
        )
        assert result.exit_code == 0, result.output
        assert "t,s,lhs,rhs,rel_err" in result.output

    def test_unwritable_out_exits_2(self, runner, tmp_path):
        out = tmp_path / "missing" / "table.csv"
        result = runner.invoke(
            main, ["kernel-check", "--hurst", "0.3", "--lattice", "2", "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: cannot write")
        assert len(result.output.splitlines()) == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)


def _argv(config: ExperimentConfig) -> list[str]:
    """Subcommand arguments for ``config``: every field it reads, and its given params."""
    values = {key: getattr(config, key) for key in declared(config.experiment) if key in FIELDS}
    argv = [config.experiment, "--workers", "1"]
    for key, value in {**values, **config.params}.items():
        flag = "--seed" if key == "master_seed" else "--" + key.replace("_", "-")
        if isinstance(value, (list, tuple)):
            argv += [flag, json.dumps(list(value))[1:-1]]
        else:
            argv += [flag, str(value)]
    return argv


@pytest.mark.parametrize("config", GOLDEN_CONFIGS, ids=lambda c: c.experiment)
def test_subcommand_reports_golden_bytes(runner, config):
    expected = (GOLDEN / f"{config.experiment}.csv").read_text(encoding="utf-8")
    flags = next(line for line in expected.splitlines() if line.startswith("# flags: "))
    passed = all(json.loads(flags[len("# flags: "):]).values())
    result = runner.invoke(main, _argv(config))
    assert result.exit_code == (0 if passed else 1), result.output
    assert result.stdout == expected


def test_every_subcommand_experiment_has_a_golden_config():
    experiment_commands = set(main.commands) - {"fbm", "run", "experiments"}
    assert experiment_commands == {c.experiment for c in GOLDEN_CONFIGS}


def test_commands_are_the_registered_experiments_fbm_run_and_experiments():
    assert set(main.commands) == {*registered_experiments(), "fbm", "run", "experiments"}


class TestRunCommand:
    def test_run_config_file(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        config = {
            "experiment": "fbm-variation",
            "hurst": 0.3,
            "grid_sizes": [16, 32],
            "replications": 12,
            "master_seed": 5,
            "output_path": str(out),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--workers", "1"])
        assert result.exit_code in (0, 1), result.output
        assert out.exists()

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"experiment": "fbm-variation", "grids": [4]}))
        result = runner.invoke(main, ["run", "--config", str(cfg_path)])
        assert result.exit_code == 2
        assert "unknown config keys" in result.output

    def test_unknown_sampler_method_exits_2_without_report(self, runner, tmp_path):
        # every experiment samples by circulant embedding; method is no param
        out = tmp_path / "report.csv"
        cfg_path = tmp_path / "config.json"
        for experiment in registered_experiments():
            config = {"experiment": experiment, "params": {"method": "circulant"}}
            cfg_path.write_text(json.dumps(config))
            for extra in ([], ["--out", str(out)]):
                result = runner.invoke(
                    main, ["run", "--config", str(cfg_path), "--workers", "1", *extra]
                )
                assert result.exit_code == 2, result.output
                assert result.output.startswith(f"error: unknown params for '{experiment}'")
                assert len(result.output.splitlines()) == 1
        assert not out.exists()

    def test_out_writes_the_bytes_of_output_path(self, runner, tmp_path):
        by_config, by_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
        config = {
            "experiment": "fbm-variation", "grid_sizes": [16], "replications": 4,
            "master_seed": 5, "output_path": str(by_config),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        args = ["run", "--config", str(cfg_path), "--workers", "1"]
        assert runner.invoke(main, args).exit_code in (0, 1)
        assert runner.invoke(main, [*args, "--out", str(by_flag)]).exit_code in (0, 1)
        assert by_flag.read_bytes() == by_config.read_bytes()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"grid_sizes": 5},
            {"grid_sizes": [16.7]},
            {"dimension": 3},
            {"horizon": 1e999},
            {"tolerances": {"rel_err_final": "x"}},
            {"experiment": "kernel-check", "horizon": 5e307, "params": {"lattice": 7}},
            {"experiment": "covariance-check", "grid_sizes": [8, 16]},
            *(
                {
                    "experiment": experiment, "hurst": 0.45, "dimension": 3,
                    "params": {"xi_draws": xi_draws},
                }
                for experiment in ("theta-variation", "divergence-variation-multi")
                # 2^62 draws: 2^61 pair values pass numpy's largest float64 array
                for xi_draws in (0, 2, 3, 2**62)
            ),
        ],
        ids=str,
    )
    def test_bad_config_exits_2_without_report(self, runner, tmp_path, overrides):
        out = tmp_path / "report.csv"
        # a case that names its experiment is the whole config
        base = {} if "experiment" in overrides else {
            "experiment": "fbm-variation", "grid_sizes": [16], "replications": 4
        }
        config = {**base, **overrides}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        result = runner.invoke(
            main, ["run", "--config", str(cfg_path), "--workers", "1", "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ")
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, code",
        [
            # a^-H = a^-2H at a = 1: the power control can never be rejected
            ({"experiment": "self-similarity", "dimension": 3, "replications": 8,
              "params": {"a_list": [1.0], "grid_size": 16}}, 2),
            # at H 0.005 about 1e-3 of int_0^1 K(1, u)^2 du lies within 1e-307 of
            # the ends, closer than any double node: no rule reaches rtol 1e-7
            ({"experiment": "kernel-check", "hurst": 0.005, "params": {"lattice": 1}}, 3),
            # the target grows like T^2 and underflows; the integrand is not zero
            ({"experiment": "divergence-variation-multi", "hurst": 0.45, "dimension": 3,
              "horizon": 1e-300, "grid_sizes": [16], "replications": 8,
              "params": {"integrand": "radial_quadratic", "xi_draws": 200}}, 3),
            # a vanishing gradient: the target is identically zero
            ({"experiment": "divergence-variation-multi", "hurst": 0.45, "dimension": 3,
              "grid_sizes": [16], "replications": 8,
              "params": {"integrand": "constant", "xi_draws": 200}}, 2),
            # V_n itself passes the largest double
            ({"experiment": "theta-variation", "hurst": 0.45, "dimension": 3,
              "horizon": 1e308, "grid_sizes": [16], "replications": 8,
              "params": {"xi_draws": 200}}, 3),
            # every per-pair xi value is finite, but their mean passes the
            # largest double (it warned from np.ldexp before)
            ({"experiment": "divergence-variation-multi", "hurst": 0.45, "dimension": 3,
              "horizon": 5e307, "grid_sizes": [16], "replications": 8,
              "params": {"integrand": "linear_sum", "xi_draws": 200}}, 3),
            # R_H^2 overflows, so every standard error was inf and every z-score 0;
            # at H 0.99 R_H itself is inf - inf, and at 1e-300 R_H^2 underflows to 0
            *(({"experiment": "covariance-check", "hurst": hurst, "horizon": horizon,
                "grid_sizes": [4], "replications": 20}, 3)
              for hurst, horizon in ((0.3, 1e300), (0.99, 1e300), (0.3, 1e-300))),
        ],
        ids=[
            "selfsim-control-at-1", "kernel-quadrature-failure", "target-underflow",
            "constant-integrand", "variation-overflow", "xi-mean-overflow",
            "covariance-se-overflow", "covariance-se-nan", "covariance-se-underflow",
        ],
    )
    def test_run_that_cannot_decide_exits_without_report(self, runner, tmp_path, config, code):
        out = tmp_path / "report.csv"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        result = runner.invoke(
            main, ["run", "--config", str(cfg_path), "--workers", "1", "--out", str(out)]
        )
        assert result.exit_code == code, result.output
        assert result.output.startswith("error: ")
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exits_2(self, runner, workers):
        result = runner.invoke(
            main, ["fbm-variation", "--hurst", "0.3", "--grid-sizes", "16", "--replications", "4",
                   "--workers", workers],
        )
        assert result.exit_code == 2
        assert "--workers" in result.output

    def test_experiments_listing(self, runner):
        result = runner.invoke(main, ["experiments"])
        assert result.exit_code == 0
        assert "theta-variation" in result.output


def test_exit_code_mapping():
    assert _exit_code(ConfigError("x")) == 2
    assert _exit_code(GateError("x")) == 2
    assert _exit_code(NumericalError("x")) == 3


ERRORS = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
ATTRIBUTES = {errors.EmbeddingError: {"min_eigenvalue": -6.49e-14},
              errors.QuadratureError: {"achieved": 3.2e-7}}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_errors_survive_a_pickle_round_trip(cls):
    # a pool worker's error reaches the parent pickled; one that does not
    # unpickle breaks the pool
    error = cls("went wrong", **ATTRIBUTES.get(cls, {}))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == "went wrong"
    assert vars(copy) == vars(error) == ATTRIBUTES.get(cls, {})


class TestResourceErrors:
    def test_pool_worker_error_exits_3_as_a_sequential_run_does(self, runner):
        # at workers 2 the EmbeddingError raised in a pool worker could not be
        # unpickled: BrokenProcessPool, a raw traceback and exit 1
        outputs = set()
        for workers in ("1", "2"):
            result = runner.invoke(main, ["fbm-variation", "--hurst", "0.99999",
                                          "--grid-sizes", "65536", "--replications", "2",
                                          "--workers", workers])
            assert result.exit_code == 3, result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)
            outputs.add(result.output)
        (output,) = outputs
        assert output.startswith("error: circulant embedding for H=0.99999, n=65536 has eigenvalue")
        assert len(output.splitlines()) == 1

    # numpy rejects both sizes before it allocates anything: 1e20 passes its
    # largest dimension, and 2^60 points of the 2n complex embedding row its
    # largest array in bytes
    @pytest.mark.parametrize("size", [10**20, 2**60], ids=["1e20", "2^60"])
    @pytest.mark.parametrize(
        "args",
        [
            ["fbm", "--hurst", "0.3", "--grid-size"],
            ["fbm-variation", "--replications", "4", "--workers", "1", "--grid-sizes"],
            ["covariance-check", "--replications", "4", "--workers", "1", "--grid-sizes"],
            ["self-similarity", "--dimension", "3", "--replications", "4", "--workers", "1",
             "--grid-size"],
        ],
        ids=lambda args: args[0],
    )
    def test_grid_numpy_cannot_hold_exits_2(self, runner, args, size):
        result = runner.invoke(main, [*args, str(size)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: grid size must not exceed")
        assert len(result.output.splitlines()) == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)

    # 2^57 cells pass the grid size bound, but 8 components of 2^57 + 1 nodes
    # pass numpy's largest float64 array; it raised from np.empty and exited 1
    @pytest.mark.parametrize(
        "args",
        [
            ["fbm", "--hurst", "0.3", "--dim", "8", "--grid-size"],
            ["theta-variation", "--dimension", "8", "--replications", "4", "--workers", "1",
             "--grid-sizes"],
        ],
        ids=lambda args: args[0],
    )
    def test_path_numpy_cannot_hold_exits_2(self, runner, args):
        result = runner.invoke(main, [*args, str(2**57)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: a path of 144115188075855873 nodes in dimension 8")
        assert len(result.output.splitlines()) == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "args",
        [
            ["fbm", "--hurst", "0.3", "--grid-size", "64"],
            ["fbm-variation", "--grid-sizes", "16", "--replications", "4", "--workers", "1"],
        ],
        ids=lambda args: args[0],
    )
    def test_memory_error_in_a_run_exits_3(self, runner, monkeypatch, args):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(fbm, "sample_fbm_circulant", out_of_memory)
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.output == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"
        assert result.exception is None or isinstance(result.exception, SystemExit)


def test_no_module_imports_scipy():
    # scipy is a test dependency only
    found = []
    for path in sorted(pathlib.Path(rvlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "scipy"]
    assert not found, found


def _step(scipy_blocked, name):
    done = scipy_blocked[name]
    assert done["error"] is None, done["error"]
    return done


@pytest.mark.parametrize("step", ["import", "help"])
def test_cold_start_loads_no_scipy(scipy_blocked, step):
    # rvlab.kernel is still imported: the benchmark's span recorder finds it
    # in sys.modules
    assert _step(scipy_blocked, step)["kernel_loaded"]


def test_theta_variation_loads_no_scipy(scipy_blocked):
    _step(scipy_blocked, "run theta-variation")


def test_kernel_check_loads_no_scipy(scipy_blocked):
    done = _step(scipy_blocked, "run kernel-check")
    assert done["value"] is True
    assert done["kernel_loaded"]


@pytest.mark.parametrize("experiment", registered_experiments())
def test_validating_a_config_loads_no_scipy(scipy_blocked, experiment):
    _step(scipy_blocked, f"validate {experiment}")


def test_everything_runs_with_scipy_blocked(scipy_blocked):
    # an install without scipy: help, every default config, the kernel entry
    # points and every experiment at criterion 10's configs
    names = {f"run {name}" for name in registered_experiments()}
    assert names <= scipy_blocked.keys()
    failed = {name: done["error"] for name, done in scipy_blocked.items() if done["error"]}
    assert failed == {}
