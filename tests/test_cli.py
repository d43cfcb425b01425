"""CLI tests through click's runner: subcommands, exit codes, env fallback."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import rvlab
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

    def test_same_seed_same_output(self, runner):
        args = ["fbm", "--hurst", "0.35", "--grid-size", "8", "--seed", "11"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_env_seed_fallback(self, runner):
        explicit = runner.invoke(
            main, ["fbm", "--hurst", "0.3", "--grid-size", "4", "--seed", "21"]
        )
        via_env = runner.invoke(
            main, ["fbm", "--hurst", "0.3", "--grid-size", "4"],
            env={"RVL_DEFAULT_SEED": "21"},
        )
        assert explicit.output == via_env.output

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
            ["variation", "--hurst", "0.3", "--grid-sizes", "16,32", "--replications", "12",
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
            ["variation", "--hurst", "0.3", "--grid-sizes", "8,16", "--replications", "12",
             "--seed", "5", "--workers", "1"],
        )
        assert result.exit_code == 1

    def test_ito_check_dispatches_by_dim(self, runner):
        result = runner.invoke(
            main,
            ["ito-check", "--hurst", "0.45", "--integrand", "quadratic", "--grid-sizes",
             "16,32", "--replications", "10", "--seed", "5", "--workers", "1",
             "--format", "json"],
        )
        assert result.exit_code in (0, 1), result.output
        doc = json.loads(result.output[: result.output.rindex("}") + 1])
        assert doc["meta"]["config"]["experiment"] == "divergence-variation"

    @pytest.mark.parametrize(
        "spec, dim, experiment",
        [("quadratic", "3", "divergence-variation-multi"),
         ("radial_quadratic", "1", "divergence-variation")],
    )
    def test_ito_check_runs_every_label_in_every_dim(self, runner, spec, dim, experiment):
        result = runner.invoke(
            main,
            ["ito-check", "--hurst", "0.45", "--integrand", spec, "--dimension", dim,
             "--grid-sizes", "16,32", "--replications", "6", "--seed", "5", "--workers", "1",
             "--format", "json"],
        )
        assert result.exit_code in (0, 1), result.output
        doc = json.loads(result.output[: result.output.rindex("}") + 1])
        assert doc["meta"]["config"]["experiment"] == experiment
        assert doc["meta"]["integrand"] == spec

    def test_ito_check_scaling_rejects_dim(self, runner):
        # lp-scaling is one-dimensional; --dimension 3 used to run it at d = 1
        result = runner.invoke(
            main,
            ["ito-check", "--hurst", "0.45", "--mode", "scaling", "--dimension", "3",
             "--replications", "4", "--workers", "1"],
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ")
        assert "dimension=3" in result.output

    def test_ito_check_unknown_spec(self, runner):
        result = runner.invoke(
            main, ["ito-check", "--hurst", "0.45", "--integrand", "septic",
                   "--grid-sizes", "16", "--replications", "4", "--workers", "1"],
        )
        assert result.exit_code == 2
        assert "septic" in result.output

    def test_ito_check_help_enumerates_whitelist(self, runner):
        result = runner.invoke(main, ["ito-check", "--help"])
        assert "quadratic" in result.output
        assert "radial_quadratic" in result.output

    def test_bessel_gate_error(self, runner):
        result = runner.invoke(
            main,
            ["bessel", "--dimension", "3", "--hurst", "0.35", "--grid-sizes", "16",
             "--replications", "4", "--workers", "1"],
        )
        assert result.exit_code == 2
        assert "2dH" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["variation", "--grid-sizes", "16,x"],
            ["bessel", "--experiment", "moments", "--t-list", "a,b"],
            ["bessel", "--experiment", "selfsim", "--a-list", "x"],
            ["ito-check", "--mode", "scaling", "--intervals", "[0.25,0.5],[0.25"],
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
            (["variation", "--grid-sizes", "16,x"], "Expecting value at char 3"),
            (["ito-check", "--mode", "scaling", "--intervals", "[0.25,0.3"],
             "Expecting ',' delimiter at the end"),
        ],
        ids=["grid-sizes", "intervals"],
    )
    def test_bad_list_error_position_is_in_the_typed_value(self, runner, args, where):
        result = runner.invoke(main, [*args, "--hurst", "0.45", "--workers", "1"])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines()[0] == f"error: bad {args[-2]} value {args[-1]!r}: {where}"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--experiment", "variation", "--q", "3"], "unknown params"),
            (["--experiment", "moments", "--grid-sizes", "64"], "does not read grid_sizes"),
        ],
        ids=["q", "grid-sizes"],
    )
    def test_bessel_value_the_experiment_does_not_read_exits_2(self, runner, args, message):
        result = runner.invoke(
            main, ["bessel", *args, "--hurst", "0.45", "--dimension", "3", "--workers", "1"]
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and message in result.output

    def test_bool_param_takes_no_flag(self, runner):
        result = runner.invoke(
            main,
            ["bessel", "--experiment", "selfsim", "--no-control", "--hurst", "0.45",
             "--dimension", "3", "--replications", "8", "--grid-size", "16", "--workers", "1",
             "--format", "json"],
        )
        assert result.exit_code in (0, 1), result.output
        doc = json.loads(result.stdout)
        assert doc["meta"]["config"]["params"] == {"control": False, "grid_size": 16}

    def test_env_seed_reaches_the_config(self, runner):
        args = ["kernel-check", "--hurst", "0.3", "--lattice", "1"]
        via_env = runner.invoke(main, args, env={"RVL_DEFAULT_SEED": "5"})
        assert via_env.exit_code == 0, via_env.output
        assert via_env.stdout == runner.invoke(main, [*args, "--seed", "5"]).stdout
        assert '"master_seed": 5' in via_env.stdout

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


# The subcommand and selector that run each experiment.
SUBCOMMANDS = {
    "fbm-variation": ["variation"],
    "divergence-variation": ["ito-check"],
    "divergence-variation-multi": ["ito-check"],
    "lp-scaling": ["ito-check", "--mode", "scaling"],
    "theta-variation": ["bessel", "--experiment", "variation"],
    "negative-moments": ["bessel", "--experiment", "moments"],
    "self-similarity": ["bessel", "--experiment", "selfsim"],
    "kernel-check": ["kernel-check"],
}


def _argv(config: ExperimentConfig) -> list[str]:
    """Subcommand arguments for ``config``: every field it reads, and its given params."""
    values = {key: getattr(config, key) for key in declared(config.experiment) if key in FIELDS}
    argv = [*SUBCOMMANDS[config.experiment], "--workers", "1"]
    for key, value in {**values, **config.params}.items():
        flag = "--seed" if key == "master_seed" else "--" + key.replace("_", "-")
        if isinstance(value, bool):
            argv.append(flag if value else f"--no-{flag[2:]}")
        elif isinstance(value, (list, tuple)):
            argv += [flag, json.dumps(list(value))[1:-1]]
        else:
            argv += [flag, str(value)]
    return argv


@pytest.mark.parametrize(
    "config",
    [c for c in GOLDEN_CONFIGS if c.experiment in SUBCOMMANDS],
    ids=lambda c: c.experiment,
)
def test_subcommand_reports_golden_bytes(runner, config):
    expected = (GOLDEN / f"{config.experiment}.csv").read_text(encoding="utf-8")
    flags = next(line for line in expected.splitlines() if line.startswith("# flags: "))
    passed = all(json.loads(flags[len("# flags: "):]).values())
    result = runner.invoke(main, _argv(config))
    assert result.exit_code == (0 if passed else 1), result.output
    assert result.stdout == expected


def test_every_subcommand_experiment_has_a_golden_config():
    assert set(SUBCOMMANDS) == set(registered_experiments()) - {"covariance-check"}


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
        out = tmp_path / "report.csv"
        config = {
            "experiment": "fbm-variation",
            "grid_sizes": [16],
            "replications": 4,
            "params": {"method": "bogus"},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        for extra in ([], ["--out", str(out)]):
            result = runner.invoke(
                main, ["run", "--config", str(cfg_path), "--workers", "1", *extra]
            )
            assert result.exit_code == 2, result.output
            assert "bogus" in result.output
            assert "n,estimate" not in result.output
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
            {"experiment": "kernel-check", "horizon": 1e308, "params": {"lattice": 1}},
            {"experiment": "kernel-check", "horizon": 5e307, "params": {"lattice": 7}},
            {"experiment": "covariance-check", "grid_sizes": [8, 16]},
            *(
                {
                    "experiment": experiment, "hurst": 0.45, "dimension": 3,
                    "params": {"xi_draws": xi_draws},
                }
                for experiment in ("theta-variation", "divergence-variation-multi")
                for xi_draws in (0, 2, 3)
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
            # quadpack reports failure on an integral near 1e-184
            ({"experiment": "kernel-check", "hurst": 0.3, "horizon": 1e-306,
              "params": {"lattice": 1}}, 3),
            # the target grows like T^2 and underflows; the integrand is not zero
            ({"experiment": "divergence-variation-multi", "hurst": 0.45, "dimension": 3,
              "horizon": 1e-300, "grid_sizes": [16], "replications": 8,
              "params": {"integrand": "radial_quadratic", "xi_draws": 200}}, 3),
            # a vanishing gradient: the target is identically zero
            ({"experiment": "divergence-variation-multi", "hurst": 0.45, "dimension": 3,
              "grid_sizes": [16], "replications": 8,
              "params": {"integrand": "constant", "xi_draws": 200}}, 2),
            # one pair's xi value passes the largest double
            ({"experiment": "theta-variation", "hurst": 0.45, "dimension": 3,
              "horizon": 1e308, "grid_sizes": [16], "replications": 8,
              "params": {"xi_draws": 200}}, 3),
        ],
        ids=[
            "selfsim-control-at-1", "kernel-quadrature-failure", "target-underflow",
            "constant-integrand", "xi-target-overflow",
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
            main, ["variation", "--hurst", "0.3", "--grid-sizes", "16", "--replications", "4",
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


@pytest.mark.parametrize(
    "body",
    [
        "import rvlab.harness, rvlab.cli",
        "from rvlab.cli import main\ntry:\n    main(['--help'])\nexcept SystemExit:\n    pass",
    ],
    ids=["import", "help"],
)
def test_cold_start_loads_no_scipy_stats(body):
    # scipy.stats is over a third of the package's start-up time and only
    # the self-similarity KS test uses it, so it must not load at start-up.
    probe = (
        f"{body}\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.startswith(('scipy.stats', 'rvlab.'))]))"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(rvlab.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True,
    )
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert not [m for m in loaded if m.startswith("scipy.stats")]
    assert "rvlab.kernel" in loaded
