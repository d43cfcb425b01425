"""Tests for the Volterra kernel, the factorization identity and the
reproduction check.

Oracles are independent of the code under test: Beta by direct numeric
integration, the incomplete Beta by scipy's, the kernel's inner integral by
quadrature after a substitution that removes its endpoint singularity, the
closed-form dK/dt checked against finite differences of kernel_K, and the
reproduction identity by generic adaptive quadrature of the kernel product
and by the closed-form covariance.  scipy is imported here only: the code
under test uses numpy and math.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta, betainc, betaincc

from conftest import KERNEL_CALLS
from rvlab.errors import DomainError, QuadratureError
from rvlab.fbm import covariance
from rvlab.harness import ExperimentConfig, run_experiment
from rvlab.kernel import (
    _betainc,
    _inner_integral,
    _tanh_sinh,
    constant_cH,
    covariance_via_kernel,
    kernel_K,
)


def beta_by_quadrature(x: float, y: float) -> float:
    """Oracle: B(x, y) = int_0^1 t^{x-1} (1-t)^{y-1} dt by direct quadrature."""
    value, err = quad(lambda t: t ** (x - 1) * (1 - t) ** (y - 1), 0, 1, epsabs=0,
                      epsrel=1e-12)
    assert err < 1e-10 * value
    return value


class TestConstantCH:
    def test_quarter_against_beta_oracle(self):
        # c_H^2 = 2h / ((1-2h) B(1-2h, h+1/2)) = 1 / B(1/2, 3/4) at h = 1/4
        expected = np.sqrt(1.0 / beta_by_quadrature(0.5, 0.75))
        assert constant_cH(0.25) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("h", [0.2, 0.3, 0.4])
    def test_against_beta_oracle(self, h):
        beta = beta_by_quadrature(1 - 2 * h, h + 0.5)
        expected = np.sqrt(2 * h / ((1 - 2 * h) * beta))
        assert constant_cH(h) == pytest.approx(expected, rel=1e-10)

    def test_blows_up_towards_half(self):
        assert constant_cH(0.499) > constant_cH(0.49) > constant_cH(0.45)

    def test_rejects_half_and_above(self):
        with pytest.raises(DomainError, match="H < 1/2"):
            constant_cH(0.5)
        with pytest.raises(DomainError):
            constant_cH(0.7)


def inner_integral_by_quadrature(h: float, t: float, s: float) -> float:
    """Oracle: int_s^t u^{H-3/2} (u-s)^{H-1/2} du after u = s + (t-s) v^2,
    which leaves a bounded integrand on [0, 1]."""
    width = t - s
    value, err = quad(lambda v: (s + width * v * v) ** (h - 1.5) * v ** (2 * h), 0, 1,
                      epsabs=0, epsrel=1e-12, limit=400)
    assert err < 1e-10 * value
    return 2.0 * width ** (h + 0.5) * value


INNER_HURSTS = [0.01, 0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.45, 0.49, 0.499]
# at t = 1, 1 - s/t is exact; (3, 3 - 3e-9) shows the cancellation it avoids
INNER_PAIRS = [(1.0, 0.5), (1.0, 1e-6), (1.0, 1 - 1e-9), (1.0, 1 - 1e-4), (3.0, 0.1),
               (1e-3, 5e-4), (7.0, 6.999), (3.0, 3.0 - 3e-9)]


@pytest.mark.parametrize("h", INNER_HURSTS)
def test_inner_integral_closed_form_against_quadrature(h):
    for t, s in INNER_PAIRS:
        assert _inner_integral(h, t, s, t - s) == pytest.approx(
            inner_integral_by_quadrature(h, t, s), rel=1e-10, abs=0.0
        )


@pytest.mark.parametrize("h", INNER_HURSTS)
def test_inner_integral_against_scipy_betainc(h):
    # I_x(b, a) with x = (t-s)/t, or 1 - I_{s/t}(a, b) where s/t is the smaller
    # argument: scipy then sees the complement exactly.  At s/t = 1e-12 and
    # H 0.499, betainc(b, a, 1 - 1e-12) is 8e-7 off, as 1 - x rounds.
    a, b = 1 - 2 * h, h + 0.5
    for t, s in [*INNER_PAIRS, (1.0, 1e-12)]:
        x, y = (t - s) / t, s / t
        incomplete = betainc(b, a, x) if x <= y else betaincc(a, b, y)
        expected = s ** (2 * h - 1) * beta(a, b) * incomplete
        assert _inner_integral(h, t, s, t - s) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("h", INNER_HURSTS)
def test_incomplete_beta_against_scipy(h):
    # both parameter orders, on both sides of the switch to 1 - I_{1-x}(q, p);
    # 1 - x is the complement scipy forms itself
    x = np.concatenate([[0.0, 1.0], np.logspace(-300, -1, 60), np.linspace(0.05, 0.95, 19),
                        1 - np.logspace(-16, -1, 30)])
    for p, q in [(h + 0.5, 1 - 2 * h), (1 - 2 * h, h + 0.5)]:
        np.testing.assert_allclose(_betainc(p, q, x, 1 - x), betainc(p, q, x), rtol=1e-12, atol=0)


class TestKernelK:
    def test_domain_errors(self):
        for t, s in [(1.0, 1.0), (0.5, 0.7), (1.0, 0.0)]:
            with pytest.raises(DomainError):
                kernel_K(0.3, t, s)

    def test_near_diagonal_exponent(self):
        # K(1, 1-eps) * eps^{1/2-H} stays bounded and converges as eps -> 0.
        h = 0.3
        eps = np.array([1e-3, 1e-4, 1e-5])
        scaled = np.array([kernel_K(h, 1.0, 1.0 - e) * e ** (0.5 - h) for e in eps])
        assert np.all(np.isfinite(scaled))
        assert abs(scaled[2] - scaled[1]) < abs(scaled[1] - scaled[0])

    @pytest.mark.parametrize("a", [2.0, 5.0])
    def test_scaling_relation(self, a):
        # K(at, as) = a^{H-1/2} K(t, s), by substitution in the defining integral.
        h, t, s = 0.3, 1.0, 0.4
        assert kernel_K(h, a * t, a * s) == pytest.approx(
            a ** (h - 0.5) * kernel_K(h, t, s), rel=1e-8
        )

    def test_reproduces_unit_variance(self):
        # int_0^1 K(1, u)^2 du = R(1, 1) = 1
        lhs = covariance_via_kernel(0.3, 1.0, 1.0, rtol=1e-8)
        assert lhs == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("h", [0.2, 0.3, 0.4])
    def test_reproduction_identity_spot(self, h):
        # Independent oracle: generic quadrature of the kernel product must
        # recover the closed-form covariance.
        t, s = 0.8, 0.45

        def integrand(u):
            return kernel_K(h, t, u) * kernel_K(h, s, u)

        lhs, err = quad(integrand, 0, s, epsabs=0, epsrel=1e-8, limit=300)
        assert lhs == pytest.approx(covariance(h, t, s), rel=2e-5)

    def test_structural_bound_constant_is_fitted(self):
        # K(t,s) <= D ((t-s)^{H-1/2} + s^{H-1/2}) for some finite D; the
        # bound constant is fitted over a lattice and reported, never assumed.
        h = 0.3
        ratios = []
        for t in (0.25, 0.5, 0.75, 1.0):
            for s in (0.1, 0.3, 0.6, 0.9):
                if s >= t:
                    continue
                bound = (t - s) ** (h - 0.5) + s ** (h - 0.5)
                ratios.append(kernel_K(h, t, s) / bound)
        fitted = max(ratios)
        print(f"fitted kernel structural-bound constant for h={h}: {fitted:.6f}")
        assert np.isfinite(fitted) and fitted > 0


def kernel_dKdt(h: float, t: float, s: float) -> float:
    """Oracle: closed-form dK_H/dt(t, s) = c_H (H-1/2) (t/s)^{H-1/2} (t-s)^{H-3/2},
    strictly negative for H < 1/2."""
    if not (0.0 < s < t):
        raise DomainError(f"kernel_dKdt requires 0 < s < t, got t={t}, s={s}")
    return constant_cH(h) * (h - 0.5) * (t / s) ** (h - 0.5) * (t - s) ** (h - 1.5)


class TestKernelDerivative:
    def test_negative_for_rough_h(self):
        for t in (0.5, 1.0, 2.0):
            for s in (0.1, 0.3):
                assert kernel_dKdt(0.3, t, s) < 0

    @pytest.mark.parametrize("h", [0.2, 0.4])
    def test_derivative_bound(self, h):
        # |dK/dt| (t-s)^{3/2-H} = c_H (t/s)^{H-1/2} <= c_H for t >= s.
        c_h = constant_cH(h)
        for t in (0.5, 1.0, 1.5):
            for s in (0.1, 0.25, 0.45):
                if s >= t:
                    continue
                lhs = abs(kernel_dKdt(h, t, s)) * (t - s) ** (1.5 - h)
                assert lhs <= c_h * (t / s) ** (h - 0.5) * (1 + 1e-12)
                assert lhs <= c_h * (1 + 1e-12)

    def test_finite_difference_oracle(self):
        h, t, s, delta = 0.3, 1.0, 0.5, 1e-6
        fd = (kernel_K(h, t + delta, s) - kernel_K(h, t, s)) / delta
        assert kernel_dKdt(h, t, s) == pytest.approx(fd, rel=1e-4)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kernel_dKdt(0.3, 0.5, 0.5)
        with pytest.raises(DomainError):
            kernel_dKdt(0.3, 0.5, 0.0)


class TestInnerProduct:
    # <1_[0,t], 1_[0,s]> in the H space, computed as int_0^{t^s} K(t, u) K(s, u) du
    def test_indicators_reproduce_covariance(self):
        h = 0.3
        for t, s in [(0.75, 0.5), (0.5, 0.75)]:
            value = covariance_via_kernel(h, t, s, rtol=1e-6)
            assert value == pytest.approx(covariance(h, 0.75, 0.5), rel=1e-4)

    def test_range_stops_at_earlier_last_jump(self):
        # K(t, .) vanishes beyond t, so integrating to min(t, s) only loses
        # nothing against [0, T] with the truncated product
        h, horizon = 0.3, 1.0

        def truncated(t: float, u: float) -> float:
            return kernel_K(h, t, u) if u < t else 0.0

        for t, s in [(2 / 3, 1.0), (1.0, 2 / 3), (0.5, 0.5)]:
            full, _ = quad(lambda u: truncated(t, u) * truncated(s, u), 0.0, horizon,
                           points=sorted({t, s} - {horizon}), epsabs=0, epsrel=1e-10,
                           limit=400)
            assert covariance_via_kernel(h, t, s, rtol=1e-10) == pytest.approx(full, rel=1e-10)


def test_kernel_check_table_small():
    # 3 * 0.1 / 3 != 0.1: the last lattice time must be the horizon itself
    for horizon in (1.0, 0.1):
        rows = run_experiment(ExperimentConfig(
            experiment="kernel-check", hurst=0.3, horizon=horizon,
            params={"lattice": 3, "rtol": 1e-6},
        )).rows
        assert len(rows) == 6  # lower triangle of a 3x3 lattice
        assert max(r[4] for r in rows) < 1e-4
        assert rows[-1][0] == horizon


@pytest.mark.parametrize("h", [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49])
@pytest.mark.parametrize("rtol", [1e-6, 1e-9, 1e-12])
def test_covariance_via_kernel_against_closed_form(h, rtol):
    # one call for every pair and horizon; every pair integrates on [0, 1]
    # after division by min(t, s), so a horizon near either end of the
    # doubles costs nothing
    horizon = np.array([1e-306, 1e-150, 1.0, 1e150, 1e307])[:, None]
    t = horizon * np.array([1.0, 1.0, 0.5, 1.0, 2 / 7, 1 / 7])
    s = horizon * np.array([1.0, 0.5, 0.5, 1 / 7, 1 / 7, 2 / 7])
    lhs = covariance_via_kernel(h, t, s, rtol)
    assert lhs.shape == t.shape
    assert np.max(np.abs(lhs / covariance(h, t, s) - 1)) <= rtol


def test_array_calls_match_scalar_calls():
    t, s = np.array([1.0, 0.8, 3.0]), np.array([0.5, 0.45, 3.0 - 3e-9])
    scalar = [kernel_K(0.3, ti, si) for ti, si in zip(t, s)]
    np.testing.assert_allclose(kernel_K(0.3, t, s), scalar, rtol=1e-14, atol=0)
    scalar = [covariance_via_kernel(0.3, ti, si, 1e-10) for ti, si in zip(t, s)]
    np.testing.assert_allclose(covariance_via_kernel(0.3, t, s, 1e-10), scalar, rtol=1e-13)
    assert covariance_via_kernel(0.3, t[:0], s[:0]).shape == (0,)  # no pairs, no integrals


def test_tanh_sinh_reaches_full_precision_at_endpoint_singularities():
    # int_0^1 u^{-1/2} du = 2 and int_0^1 log(1 - u) du = -1, at either end
    assert _tanh_sinh(lambda u, g: u ** -0.5, (), 1e-12) == pytest.approx(2.0, rel=1e-14)
    assert _tanh_sinh(lambda u, g: np.log(g), (), 1e-12) == pytest.approx(-1.0, rel=1e-14)


def test_nonconvergent_quadrature_reports_achieved_error():
    # the level cap cannot resolve a fast oscillation at this tolerance, and
    # the failure counts however small the integral is
    for scale in (1.0, 1e-20):
        with pytest.raises(QuadratureError, match=r"on \[0, 1\] did not reach rtol") as err:
            _tanh_sinh(lambda u, g: scale * np.sin(1e6 * u * u), (), rtol=1e-12)
        assert err.value.achieved > 1e-12


def test_overflowing_integrand_is_a_quadrature_error():
    with pytest.raises(QuadratureError, match=r"on \[0, 1\] met a value that is not finite"):
        _tanh_sinh(lambda u, g: 10.0 ** (400 * u), (), rtol=1e-7)


@pytest.mark.parametrize("h", [0.02, 0.3, 0.49])
@pytest.mark.parametrize("s", [1e-300, 1e-100])
def test_covariance_via_kernel_at_tiny_ratios(h, s):
    # min/max near the smallest doubles: the limit stays 1, and the closed
    # form 1/2 (s^{2H} + 1 - (1 - s)^{2H}) is taken without cancellation
    expected = 0.5 * (s ** (2 * h) - np.expm1(2 * h * np.log1p(-s)))
    assert covariance_via_kernel(h, 1.0, s) == pytest.approx(expected, rel=1e-10)
    assert covariance_via_kernel(h, s, 1.0) == pytest.approx(expected, rel=1e-10)


def test_ratio_that_overflows_is_a_domain_error():
    # 1e308 / 5e-324 is no double: refused before the incomplete Beta sees it
    with pytest.raises(DomainError, match=r"finite double max\(t, s\)/min\(t, s\)"):
        covariance_via_kernel(0.3, np.array([1.0, 1e308]), 5e-324)


def test_covariance_via_kernel_goes_through_kernel_K(monkeypatch):
    # the benchmark's kernel layer wraps the module-level name kernel_K, so
    # both factors of the product, the shared K_H(1, .) with its scalar t and
    # the per-pair K_H(r, .), must be looked up through it
    calls = []

    def counting(*args):
        calls.append(args)
        return kernel_K(*args)

    expected = covariance_via_kernel(0.3, 1.0, 0.5)
    monkeypatch.setattr("rvlab.kernel.kernel_K", counting)
    assert covariance_via_kernel(0.3, 1.0, 0.5) == expected
    shared = [args for args in calls if np.ndim(args[1]) == 0]
    assert calls and 2 * len(shared) == len(calls)


def test_mass_beyond_the_last_node_is_a_quadrature_error():
    # at H 0.005 about 1e-3 of int_0^1 K(1, u)^2 du lies within 1e-307 of the
    # ends, closer than a double node can get: the tail estimate must refuse
    with pytest.raises(QuadratureError) as err:
        covariance_via_kernel(0.005, 1.0, 1.0)
    assert 1e-4 < err.value.achieved < 1e-2


@pytest.mark.parametrize("entry", [entry for entry, _ in KERNEL_CALLS])
def test_entry_point_loads_no_scipy(scipy_blocked, entry):
    # the probe is shared with test_cli.py; see conftest.py
    done = scipy_blocked[f"call {entry}"]
    assert done["error"] is None, done["error"]
    assert done["value"] > 0
