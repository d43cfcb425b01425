"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
passing runs).  All experiments are driven through the harness with fixed
master seeds, so the whole suite is deterministic; the statistical
tolerances were chosen a priori and the seeds merely freeze one draw of
each experiment.
"""

import pytest

from rvlab.errors import GateError
from rvlab.harness import ExperimentConfig, registered_experiments, run_experiment

WORKERS = 2  # any value must give identical bytes; criterion 10 checks that


def announce(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_covariance_and_sampler_fidelity():
    details = []
    ok = True
    for h in (0.3, 0.45):
        config = ExperimentConfig(
            experiment="covariance-check", hurst=h, grid_sizes=(64,),
            replications=10_000, master_seed=7,
        )
        report = run_experiment(config, workers=WORKERS)
        ok = ok and report.passed
        details.append(
            f"h={h}: " + ", ".join(f"{row[0]} max|z|={row[1]:.2f}" for row in report.rows)
        )
    announce(1, ok, "empirical covariance within 3 s.e. (n=64, M=1e4); " + "; ".join(details))


def test_criterion_02_kernel_reproduction_and_isometry():
    # lattice 5 covers reproduction; lattice 4 holds the isometry pair
    # <1_[0,0.75], 1_[0,0.5]> = R_H(0.75, 0.5)
    ok = True
    worst_repro = worst_iso = 0.0
    for h in (0.2, 0.3, 0.4):
        for lattice in (5, 4):
            config = ExperimentConfig(
                experiment="kernel-check", hurst=h, params={"lattice": lattice, "rtol": 1e-6}
            )
            report = run_experiment(config)
            ok = ok and report.passed
            worst_repro = max(worst_repro, report.extra["max_rel_err"])
            if lattice == 4:
                (iso,) = [r[4] for r in report.rows if (r[0], r[1]) == (0.75, 0.5)]
                worst_iso = max(worst_iso, iso)
    announce(
        2, ok,
        f"kernel factorization rel err {worst_repro:.2e} and isometry rel err "
        f"{worst_iso:.2e} both < 1e-4",
    )


def test_criterion_03_fbm_one_over_h_variation():
    details = []
    ok = True
    for h in (0.3, 0.4):
        config = ExperimentConfig(
            experiment="fbm-variation", hurst=h, horizon=1.0,
            grid_sizes=(64, 256, 1024, 4096), replications=200, master_seed=101,
        )
        report = run_experiment(config, workers=WORKERS)
        final = report.rows[-1][4]
        ok = ok and report.passed and final < 0.05
        details.append(f"h={h}: rel L1 err(4096)={final:.4f}, monotone={report.flags['monotone_decreasing']}")
    announce(3, ok, "; ".join(details))


def test_criterion_04_divergence_variation_1d():
    config = ExperimentConfig(
        experiment="divergence-variation", hurst=0.45, horizon=1.0, grid_sizes=(4096,),
        replications=200, master_seed=103, params={"integrand": "quadratic"},
    )
    report = run_experiment(config, workers=WORKERS)
    rel = report.rows[-1][4]
    announce(4, report.passed and rel < 0.10, f"V_n(X) vs e_H int|B|^{{1/H}}: rel L1 err = {rel:.4f} < 0.10")


def test_criterion_05_divergence_variation_3d():
    config = ExperimentConfig(
        experiment="divergence-variation-multi", hurst=0.45, dimension=3, horizon=1.0,
        grid_sizes=(4096,), replications=200, master_seed=104,
    )
    report = run_experiment(config, workers=WORKERS)
    rel, check = report.rows[-1][4], report.extra
    closed, target_mc, mc_se = (
        check[f"xi_check_{key}"] for key in ("closed_form", "estimate", "se")
    )
    agree = abs(closed - target_mc) <= 3 * mc_se
    ok = report.passed and rel < 0.10 and agree
    announce(
        5, ok,
        f"rel L1 err = {rel:.4f} < 0.10; nu-integral check on one path: closed form "
        f"{closed:.4f} vs xi-MC {target_mc:.4f} within 3 s.e. ({3 * mc_se:.2e})",
    )


def test_criterion_06_theta_variation_and_gate():
    config = ExperimentConfig(
        experiment="theta-variation", hurst=0.45, dimension=3, horizon=1.0,
        grid_sizes=(4096,), replications=200, master_seed=105,
    )
    report = run_experiment(config, workers=WORKERS)
    rel = report.rows[-1][4]
    with pytest.raises(GateError):
        run_experiment(
            ExperimentConfig(
                experiment="theta-variation", hurst=0.35, dimension=3,
                grid_sizes=(64,), replications=4, master_seed=0,
            )
        )
    ok = report.passed and rel < 0.10
    announce(6, ok, f"V_n(Theta) within 10% of e_H T (rel = {rel:.4f}); gate rejects (d=3, h=0.35)")


def test_criterion_07_negative_moments():
    config = ExperimentConfig(
        experiment="negative-moments", hurst=0.45, dimension=3,
        replications=100_000, master_seed=106,
        params={"q": 1.0, "t_list": [0.25, 0.5, 1.0, 2.0]},
    )
    report = run_experiment(config, workers=WORKERS)
    slope_err = abs(report.extra["slope"] - report.extra["slope_target"])
    intercept_err = abs(report.extra["intercept"] - report.extra["intercept_target"])
    ok = report.passed and slope_err <= 0.02 and intercept_err <= 0.05
    announce(
        7, ok,
        f"slope {report.extra['slope']:.4f} vs -Hq (err {slope_err:.4f} <= 0.02); "
        f"intercept err {intercept_err:.4f} <= 0.05 vs log sqrt(2/pi)",
    )


def test_criterion_08_self_similarity_with_power_control():
    config = ExperimentConfig(
        experiment="self-similarity", hurst=0.45, dimension=3, replications=2000,
        master_seed=107, params={"a_list": [2.0, 4.0], "t": 0.5, "grid_size": 1024},
    )
    report = run_experiment(config, workers=WORKERS)
    *proper, control = report.rows
    ok = report.passed and all(row[4] <= 1e-9 for row in proper) and control[4] > 1e-9
    detail = ", ".join(f"a={row[0]} dev={row[4]:.1e}" for row in proper)
    detail += f"; control a={control[0]} a^-2H dev={control[4]:.3f} rejected"
    announce(8, ok, f"a^-H Theta_at = Theta_t pathwise within 1e-9 ({detail})")


def test_criterion_09_lp_scaling_exponent():
    slope_id, slope_quad = (
        run_experiment(
            ExperimentConfig(
                experiment="lp-scaling", hurst=0.45, replications=4000, master_seed=108,
                params={"integrand": integrand},
            ),
            workers=WORKERS,
        ).extra["slope"]
        for integrand in ("identity", "quadratic")
    )
    ok = abs(slope_id - 1.0) <= 0.05 and abs(slope_quad - 1.0) <= 0.15
    announce(
        9, ok,
        f"log-log slopes: u=1 -> {slope_id:.4f} (|err| <= 0.05), "
        f"u=B -> {slope_quad:.4f} (|err| <= 0.15)",
    )


def test_criterion_10_determinism_across_worker_counts():
    # Reduced-scale sweep over every registered experiment plus one
    # full-scale spot check; reports must be byte-identical for any worker
    # count (replications own derived streams; reduction is in index order).
    reduced = {
        "fbm-variation": dict(hurst=0.3, grid_sizes=(16, 32), replications=12),
        "divergence-variation": dict(hurst=0.45, grid_sizes=(16, 32), replications=12,
                          params={"integrand": "quadratic"}),
        "divergence-variation-multi": dict(hurst=0.45, dimension=3, grid_sizes=(16,), replications=8,
                          params={"xi_draws": 1000}),
        "theta-variation": dict(hurst=0.45, dimension=3, grid_sizes=(16,),
                                replications=8, params={"xi_draws": 1000}),
        "negative-moments": dict(hurst=0.45, dimension=3, replications=64,
                                 params={"q": 1.0, "t_list": [0.5, 1.0]}),
        "self-similarity": dict(hurst=0.45, dimension=3, replications=32,
                                params={"a_list": [2.0], "t": 0.5, "grid_size": 32}),
        "lp-scaling": dict(hurst=0.45, replications=16,
                           params={"integrand": "identity", "grid_size": 256}),
        "kernel-check": dict(hurst=0.3, params={"lattice": 2, "rtol": 1e-6}),
        "covariance-check": dict(hurst=0.3, grid_sizes=(8,), replications=200),
    }
    assert set(reduced) == set(registered_experiments())
    checked = 0
    for name, kwargs in reduced.items():
        config = ExperimentConfig(experiment=name, master_seed=5, **kwargs)
        baseline = run_experiment(config, workers=1).to_csv()
        for workers in (2, 8):
            assert run_experiment(config, workers=workers).to_csv() == baseline, (
                f"{name} report differs at workers={workers}"
            )
        checked += 1
    full = ExperimentConfig(
        experiment="fbm-variation", hurst=0.3, horizon=1.0,
        grid_sizes=(64, 256, 1024, 4096), replications=200, master_seed=101,
    )
    baseline = run_experiment(full, workers=1).to_csv()
    for workers in (2, 8):
        assert run_experiment(full, workers=workers).to_csv() == baseline
    announce(
        10, True,
        f"byte-identical reports across workers in {{1,2,8}} for {checked} reduced "
        "configs and the full-scale variation config",
    )
