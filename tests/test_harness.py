"""Tests for config validation, the experiment registry, aggregation,
report serialization and worker-count determinism."""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from rvlab import bessel, harness, ito, parallel
from rvlab.errors import ConfigError, DomainError, GateError, NumericalError, QuadratureError
from rvlab.harness import ExperimentConfig, registered_experiments, run_experiment
from rvlab.parallel import replication_map
from rvlab.report import ConvergenceReport, Report, aggregate


class TestAggregate:
    def test_single_value_has_no_stderr(self):
        assert aggregate([4.2]) == (4.2, None)

    def test_constant_values(self):
        mean, stderr = aggregate([1.0, 1.0, 1.0])
        assert mean == 1.0
        assert stderr == 0.0

    def test_matches_classical_formula(self):
        rng = np.random.default_rng(0)
        values = list(rng.standard_normal(100))
        mean, stderr = aggregate(values)
        assert mean == pytest.approx(np.mean(values), rel=1e-12)
        assert stderr == pytest.approx(np.std(values, ddof=1) / 10, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            aggregate([])

    @pytest.mark.parametrize("power", [-1000, -600, 600, 1000])
    def test_scales_exactly_by_powers_of_two(self, power):
        # the squared deviations underflowed to 0 or overflowed at these scales
        values = list(np.random.default_rng(1).standard_normal(8) + 3.0)
        mean, stderr = aggregate(values)
        scaled = aggregate([math.ldexp(v, power) for v in values])
        assert scaled == (math.ldexp(mean, power), math.ldexp(stderr, power))


class TestReplicationMap:
    def test_order_is_by_replication_index(self):
        assert replication_map(lambda i: i * i, 7, workers=1) == [
            0, 1, 4, 9, 16, 25, 36
        ]

    def test_worker_count_does_not_change_result(self):
        sequential = replication_map(_cube, 13, workers=1)
        sharded = replication_map(_cube, 13, workers=4)
        assert sequential == sharded

    def test_pool_is_capped_at_cpu_count_but_keeps_shards(self, monkeypatch):
        pools = []
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", lambda max_workers, initializer:
                            _InlinePool(max_workers, pools))
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        assert replication_map(_cube, 20, workers=8) == [i**3 for i in range(20)]
        assert pools == [(3, 8)]  # 8 index-mod-8 shards on 3 processes

    def test_pool_workers_run_one_blas_thread(self):
        if _blas_threads(0) is None:
            pytest.skip("numpy has no bundled OpenBLAS with a thread setter")
        before = _blas_threads(0)
        assert replication_map(_blas_threads, 4, workers=2) == [1] * 4
        assert _blas_threads(0) == before  # the parent keeps its own setting


def _cube(i: int) -> int:
    return i**3


def _blas_threads(i: int) -> int | None:
    getter = getattr(parallel._numpy_openblas(), "scipy_openblas_get_num_threads64_", None)
    return None if getter is None else getter()


class _InlinePool:
    """Stands in for a process pool: records (max_workers, shards), runs inline."""

    def __init__(self, max_workers, log):
        self.max_workers, self.log = max_workers, log

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        shards = list(iterables[-1])
        self.log.append((self.max_workers, len(shards)))
        return map(fn, *iterables[:-1], shards)


class TestExperimentConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"experiment": "fbm-variation", "grids": [2]})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig(experiment="brownian-dance")

    def test_unknown_param_key(self):
        with pytest.raises(ConfigError, match="unknown params"):
            ExperimentConfig(experiment="fbm-variation", params={"methd": "x"})

    def test_unknown_tolerance_key(self):
        with pytest.raises(ConfigError, match="unknown tolerances"):
            ExperimentConfig(experiment="fbm-variation", tolerances={"reltol": 0.1})

    def test_bad_grid_sizes(self):
        for bad in ([], [0], [64, 64], [256, 64]):
            with pytest.raises(ConfigError):
                ExperimentConfig(experiment="fbm-variation", grid_sizes=tuple(bad))

    def test_hurst_range_checked(self):
        with pytest.raises(DomainError):
            ExperimentConfig(experiment="fbm-variation", hurst=1.2)

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("[1, 2]")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{not json")

    def test_int_for_float_runs_the_float_config(self):
        base = dict(experiment="negative-moments", hurst=0.45, dimension=3, replications=16)
        as_int = ExperimentConfig.from_dict(
            {**base, "horizon": 1, "params": {"q": 1, "t_list": [0.5, 1]}}
        )
        as_float = ExperimentConfig.from_dict(
            {**base, "horizon": 1.0, "params": {"q": 1.0, "t_list": [0.5, 1.0]}}
        )
        assert as_int.param("q") == 1.0 and isinstance(as_int.param("q"), float)
        assert run_experiment(as_int).to_csv() == run_experiment(as_float).to_csv()

    def test_registry_listing(self):
        names = registered_experiments()
        assert "fbm-variation" in names
        assert "kernel-check" in names
        assert names == sorted(names)


# Inputs that crashed with a traceback, silently ran another computation or
# exited with the numerical code; each is now a config error before any run.
BAD_CONFIGS = [
    ("fbm-variation", {"grid_sizes": 5}),
    ("fbm-variation", {"hurst": "x"}),
    ("fbm-variation", {"replications": "10"}),
    ("fbm-variation", {"replications": 4.5}),
    ("fbm-variation", {"horizon": "1"}),
    ("negative-moments", {"params": {"t_list": 1.0}}),
    ("lp-scaling", {"params": {"intervals": [1, 2]}}),
    ("fbm-variation", {"tolerances": {"rel_err_final": "x"}}),
    ("lp-scaling", {"tolerances": {"slope_tol": None}}),
    ("fbm-variation", {"grid_sizes": [16.7]}),
    ("kernel-check", {"params": {"lattice": 2.9}}),
    ("fbm-variation", {"dimension": 3}),
    ("covariance-check", {"dimension": 4}),
    # xi_paths is not a param: every dual replication carries xi
    ("divergence-variation-multi", {"params": {"xi_paths": 0}}),
    ("self-similarity", {"params": {"control": "false"}}),
    ("negative-moments", {"params": {"q": "1"}}),
    ("fbm-variation", {"horizon": float("inf")}),  # JSON 1e999
    ("theta-variation", {"dimension": 3, "params": {"xi_paths": 6}}),
    # one antithetic pair gives a NaN standard error, which decides no cross-check
    ("theta-variation", {"hurst": 0.45, "dimension": 3, "params": {"xi_draws": 2}}),
    ("divergence-variation-multi", {"dimension": 3, "params": {"xi_draws": 9}}),
    ("fbm-variation", {"replications": 1}),
    ("fbm-variation", {"hurst": True}),
    ("fbm-variation", {"params": []}),
    ("fbm-variation", {"output_path": 5}),
    ("fbm-variation", {"experiment": ["x"]}),
]


@pytest.mark.parametrize(
    "experiment, overrides", BAD_CONFIGS, ids=lambda v: v if isinstance(v, str) else str(v)
)
def test_bad_config_rejected(experiment, overrides):
    small = {k: v for k, v in (("grid_sizes", [16]), ("replications", 5)) if k in READS[experiment]}
    with pytest.raises((ConfigError, DomainError)):
        ExperimentConfig.from_dict({"experiment": experiment, **small, **overrides})


# The top-level fields each experiment reads besides hurst and master_seed,
# from its runner; any other field must keep its default.
READS = {
    "fbm-variation": {"horizon", "grid_sizes", "replications"},
    "divergence-variation": {"horizon", "grid_sizes", "replications"},
    "divergence-variation-multi": {"dimension", "horizon", "grid_sizes", "replications"},
    "theta-variation": {"dimension", "horizon", "grid_sizes", "replications"},
    "negative-moments": {"dimension", "replications"},
    "self-similarity": {"dimension", "replications"},
    "lp-scaling": {"horizon", "replications"},
    "kernel-check": {"horizon"},
    "covariance-check": {"horizon", "grid_sizes", "replications"},
}
NOT_DEFAULT = {"dimension": 3, "horizon": 9.0, "grid_sizes": [7], "replications": 7}


@pytest.fixture()
def no_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("replications ran before the input was rejected")

    for module in (harness, ito, bessel):
        monkeypatch.setattr(module, "replication_map", no_work)


@pytest.mark.parametrize(
    "experiment, field",
    [(e, f) for e, fields in READS.items() for f in NOT_DEFAULT if f not in fields],
    ids=str,
)
def test_unread_field_rejected_before_work(experiment, field, no_work):
    with pytest.raises(ConfigError, match=f"'{experiment}' does not read {field}; got {field}="):
        run_experiment(ExperimentConfig(experiment=experiment, **{field: NOT_DEFAULT[field]}))


@pytest.mark.parametrize("experiment", sorted(READS))
def test_read_fields_unread_defaults_and_master_seed_accepted(experiment):
    # an unread field given at its default passes, an int for a float as the float
    at_default = {"dimension": 1, "horizon": 1, "grid_sizes": [64, 256, 1024, 4096],
                  "replications": 200}
    given = {f: NOT_DEFAULT[f] if f in READS[experiment] else v for f, v in at_default.items()}
    config = ExperimentConfig.from_dict(
        {"experiment": experiment, "hurst": 0.45, "master_seed": 5, **given}
    )
    assert config.master_seed == 5
    assert {f for f in harness.declared(experiment) if f in NOT_DEFAULT} == READS[experiment]


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("kernel-check", {"lattice": 0}),
        ("kernel-check", {"rtol": 0.0}),
        # a relative tolerance of 100% decides nothing; it exited 1
        ("kernel-check", {"rtol": 1.0}),
        ("lp-scaling", {"intervals": [[0.25, 0.5, 0.75]]}),
        # a KS level outside (0, 1), and a power control at a = 1, where
        # a^-H = a^-2H, decide no gate
        ("self-similarity", {"level": 5.0}),
        ("self-similarity", {"level": 0.0}),
        ("self-similarity", {"a_list": [1.0]}),
        # the a = 2 arms ran before the a = -1 DomainError
        ("self-similarity", {"a_list": [2.0, -1.0]}),
        # a * t = inf failed in a worker, naming a horizon never set
        ("self-similarity", {"a_list": [1e308], "t": 10.0}),
        # an unknown sampler was caught only inside the first replication
        ("fbm-variation", {"method": "bogus"}),
        ("self-similarity", {"method": "bogus"}),
    ],
    ids=str,
)
def test_bad_driver_input_rejected_before_work(experiment, params, no_work):
    with pytest.raises((ConfigError, DomainError)):
        config = ExperimentConfig(
            experiment=experiment, hurst=0.3, params=params,
            dimension=3 if experiment == "self-similarity" else 1,
        )
        run_experiment(config)


def test_unwritable_output_path_rejected_before_work(tmp_path):
    out = tmp_path / "missing" / "x.csv"
    with pytest.raises(ConfigError, match="cannot write"):
        ExperimentConfig(
            experiment="theta-variation", hurst=0.45, dimension=3, output_path=str(out)
        )


@pytest.mark.parametrize("horizon, lattice", [(1e-306, 1)])
def test_kernel_overflow_is_a_quadrature_error(horizon, lattice):
    # quadpack cannot reach rtol on a value near 1e-184, which may not pass as
    # a tolerance verdict
    config = ExperimentConfig(
        experiment="kernel-check", hurst=0.3, horizon=horizon, params={"lattice": lattice}
    )
    with pytest.raises(QuadratureError):
        run_experiment(config)


@pytest.mark.parametrize(
    "horizon, lattice", [(9.1e307, 1), (1e308, 1), (1.7e308, 3), (5e307, 7)]
)
def test_kernel_check_rejects_horizon_at_float_limit(horizon, lattice):
    # above half the largest double quadpack's midpoints overflow and it reports
    # success on values 15-50% off; at 1.7e308 and lattice 3, and at 5e307 and
    # lattice 7, the product (lattice - 1) * horizon behind a lattice time is inf
    config = ExperimentConfig(
        experiment="kernel-check", hurst=0.3, horizon=horizon, params={"lattice": lattice}
    )
    with pytest.raises(DomainError, match="horizon <= 8.988e\\+307"):
        run_experiment(config)


@pytest.mark.parametrize("horizon", [1e307, 1e300, 1e-300])
def test_kernel_check_at_extreme_horizons(horizon):
    config = ExperimentConfig(
        experiment="kernel-check", hurst=0.3, horizon=horizon, params={"lattice": 1}
    )
    report = run_experiment(config)
    assert report.flags["reproduction_ok"]
    assert report.extra["max_rel_err"] < 1e-10


# (config fields, horizons near the float limit where the experiment still
# yields a report); above them a per-path xi value passes the largest double
_SCALE_FREE = {
    "fbm-variation": ({}, (5e307, 1e308)),
    "theta-variation": ({"dimension": 3, "params": {"xi_draws": 200}}, (5e307,)),
    # radial_quadratic's V_n grows like T^2: it overflows at 1e160, see below
    "divergence-variation-multi": (
        {"dimension": 3, "params": {"integrand": "linear_sum", "xi_draws": 200}}, ()
    ),
}


@pytest.mark.parametrize("experiment", sorted(_SCALE_FREE))
def test_variation_reports_are_scale_free_across_horizons(experiment):
    # fBm on [0, T] is T^H times fBm on [0, 1] drawn from the same normals
    fields, far = _SCALE_FREE[experiment]

    def rel_err(horizon):
        config = ExperimentConfig(
            experiment=experiment, hurst=0.45, horizon=horizon, grid_sizes=[16],
            replications=8, **fields,
        )
        return run_experiment(config).rows[-1][4]

    at_one = rel_err(1.0)
    for horizon in (1e-300, 1e-170, 1e160, 1e300, *far):
        assert rel_err(horizon) == pytest.approx(at_one, rel=1e-10)


def test_overflowing_variation_is_a_numerical_error():
    config = ExperimentConfig(
        experiment="divergence-variation", hurst=0.45, horizon=1e300, grid_sizes=[16],
        replications=8,
    )
    with pytest.raises(NumericalError, match="V_n"):
        run_experiment(config)


class TestGates:
    def test_kernel_check_rejects_half(self):
        cfg = ExperimentConfig(experiment="kernel-check", hurst=0.5)
        with pytest.raises(DomainError, match="requires H < 1/2"):
            run_experiment(cfg)

    def test_theta_gate_message_echoes_inequality(self):
        cfg = ExperimentConfig(
            experiment="theta-variation", hurst=0.35, dimension=3,
            grid_sizes=(64,), replications=4,
        )
        with pytest.raises(GateError, match="2dH"):
            run_experiment(cfg)


def _split_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """The ``# key: json`` comment lines of an emitted CSV report, its
    header and its rows of cells."""
    lines = text.splitlines()
    comments = dict(line[2:].split(": ", 1) for line in lines[1:] if line.startswith("# "))
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    return {key: json.loads(payload) for key, payload in comments.items()}, header, rows


class TestReports:
    def test_csv_round_trip_reproduces_rows(self):
        report = Report(
            columns=("n", "value", "label", "ok"),
            rows=[(64, 0.1234567890123456789, "alpha", True), (256, 1e-17, "beta", False)],
            extra={"slope": 1.0},
            flags={"fine": True},
            meta={"experiment": "demo"},
        )
        comments, header, rows = _split_csv(report.to_csv())
        assert tuple(header) == report.columns
        assert len(rows) == len(report.rows)
        for (n, value, label, ok), row in zip(rows, report.rows):
            assert (int(n), float(value), label) == row[:3]
            assert ok == ("true" if row[3] else "false")
        assert comments == {"meta": report.meta, "extra": report.extra, "flags": report.flags}

    def test_csv_round_trip_keeps_none(self):
        report = Report(columns=("n", "stderr"), rows=[(1, None), (2, 0.5)], extra={"se": None})
        comments, _, rows = _split_csv(report.to_csv())
        assert rows == [["1", "None"], ["2", "0.5"]]
        assert float(rows[1][1]) == report.rows[1][1]
        assert comments["extra"] == report.extra

    def test_non_finite_floats_are_strict_json_null(self):
        report = Report(
            columns=("x", "y"),
            rows=[(math.inf, -math.inf), (math.nan, 1.5)],
            extra={"x": math.inf, "nested": [np.float64(np.nan), {"z": -math.inf}]},
            meta={"ok": 2.5},
        )

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads(report.to_json(), parse_constant=reject)
        assert doc["rows"] == [[None, None], [None, 1.5]]
        assert doc["extra"] == {"x": None, "nested": [None, {"z": None}]}
        assert doc["meta"] == {"ok": 2.5}
        for line in report.to_csv().splitlines()[1:4]:
            json.loads(line.split(": ", 1)[1], parse_constant=reject)

    def test_wall_time_not_serialized(self):
        report = Report(columns=("x",), rows=[(1,)], meta={"wall_time_s": 0.5, "k": 1})
        assert "wall_time_s" not in report.to_csv()
        assert '"k": 1' in report.to_csv()

    def test_convergence_report_validation(self):
        with pytest.raises(ConfigError, match="sorted"):
            ConvergenceReport(
                columns=("n", "estimate", "target", "abs_err", "rel_err", "stderr"),
                rows=[(256, 1.0, 1.0, 0.1, 0.1, 0.01), (64, 1.0, 1.0, 0.2, 0.2, 0.01)],
            )
        with pytest.raises(ConfigError, match="stderr"):
            ConvergenceReport(
                columns=("n", "estimate", "target", "abs_err", "rel_err", "stderr"),
                rows=[(64, 1.0, 1.0, 0.1, 0.1, 0.0)],
            )

    def test_json_emission_parses(self):
        cfg = ExperimentConfig(
            experiment="fbm-variation", hurst=0.3, grid_sizes=(16, 32), replications=8,
            master_seed=4,
        )
        report = run_experiment(cfg)
        doc = json.loads(report.to_json())
        assert doc["columns"][0] == "n"
        assert doc["meta"]["config"]["experiment"] == "fbm-variation"
        assert len(doc["rows"]) == 2

    def test_output_file_written(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = ExperimentConfig(
            experiment="fbm-variation", hurst=0.3, grid_sizes=(16,), replications=4,
            master_seed=4, output_path=str(out),
        )
        run_experiment(cfg)
        assert out.read_text().startswith("# rvlab-")


SMALL_CONFIGS = [
    ExperimentConfig(
        experiment="fbm-variation", hurst=0.3, grid_sizes=(16, 32), replications=12,
        master_seed=5,
    ),
    ExperimentConfig(
        experiment="divergence-variation", hurst=0.45, grid_sizes=(16, 32), replications=12,
        master_seed=5, params={"integrand": "quadratic"},
    ),
    ExperimentConfig(
        experiment="divergence-variation-multi", hurst=0.45, dimension=3, grid_sizes=(16,),
        replications=8, master_seed=5, params={"xi_draws": 1000},
    ),
    ExperimentConfig(
        experiment="theta-variation", hurst=0.45, dimension=3, grid_sizes=(16,),
        replications=8, master_seed=5, params={"xi_draws": 1000},
    ),
    ExperimentConfig(
        experiment="negative-moments", hurst=0.45, dimension=3, replications=64,
        master_seed=5, params={"q": 1.0, "t_list": [0.5, 1.0]},
    ),
    ExperimentConfig(
        experiment="self-similarity", hurst=0.45, dimension=3, replications=32,
        master_seed=5, params={"a_list": [2.0], "t": 0.5, "grid_size": 32},
    ),
    ExperimentConfig(
        experiment="lp-scaling", hurst=0.45, replications=16, master_seed=5,
        params={"integrand": "identity", "grid_size": 256},
    ),
    ExperimentConfig(
        experiment="covariance-check", hurst=0.3, grid_sizes=(8,), replications=200,
        master_seed=5,
    ),
]


@pytest.mark.parametrize("config", SMALL_CONFIGS, ids=lambda c: c.experiment)
def test_reports_identical_across_worker_counts(config):
    baseline = run_experiment(config, workers=1).to_csv()
    for workers in (2, 8):
        assert run_experiment(config, workers=workers).to_csv() == baseline


@pytest.mark.parametrize(
    "config",
    [c for c in SMALL_CONFIGS if c.experiment != "covariance-check"],
    ids=lambda c: c.experiment,
)
def test_unknown_sampler_method_rejected(config):
    with pytest.raises(ConfigError, match="bogus"):
        dataclasses.replace(config, params={**config.params, "method": "bogus"})


# Reports of the reduced configs, pinned byte for byte.  They change only
# with a deliberate change of the random-stream contract or of a numerical
# method, which regenerates them and says so in CHANGES.md.
GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_CONFIGS = SMALL_CONFIGS + [
    ExperimentConfig(
        experiment="kernel-check", hurst=0.3, master_seed=5,
        params={"lattice": 2, "rtol": 1e-6},
    ),
]


def test_golden_configs_cover_every_experiment():
    assert sorted(c.experiment for c in GOLDEN_CONFIGS) == registered_experiments()


@pytest.mark.parametrize("config", GOLDEN_CONFIGS, ids=lambda c: c.experiment)
def test_report_matches_golden_bytes(config):
    expected = (GOLDEN / f"{config.experiment}.csv").read_text(encoding="utf-8")
    assert run_experiment(config).to_csv() == expected
