"""Tests for the Volterra kernel, the K* operator, the inner product and the
reproduction check.

Oracles are independent of the code under test: Beta by direct numeric
integration, the kernel's inner integral by quadrature after a substitution
that removes its endpoint singularity, the closed-form dK/dt (itself checked
by finite differences of kernel_K) for K*, the reproduction identity by
generic adaptive quadrature of the kernel product against the closed-form
covariance, and the extended pairing <phi, 1_[0,t]> = int phi dR(., t) for
the inner product of a non-indicator step function.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from rvlab.core import StepFunction, UniformGrid
from rvlab.errors import DomainError, QuadratureError
from rvlab.fbm import covariance
from rvlab.harness import ExperimentConfig, run_experiment
from rvlab.kernel import (
    _inner_integral,
    _quad,
    constant_cH,
    covariance_via_kernel,
    inner_product_H,
    kernel_K,
    kstar_step,
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


@pytest.mark.parametrize("h", [0.01, 0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.45, 0.49, 0.499])
def test_inner_integral_closed_form_against_quadrature(h):
    # at t = 1, 1 - s/t is exact; (3, 3 - 3e-9) shows the cancellation it avoids
    for t, s in [(1.0, 0.5), (1.0, 1e-6), (1.0, 1 - 1e-9), (1.0, 1 - 1e-4), (3.0, 0.1),
                 (1e-3, 5e-4), (7.0, 6.999), (3.0, 3.0 - 3e-9)]:
        assert _inner_integral(h, t, s) == pytest.approx(
            inner_integral_by_quadrature(h, t, s), rel=1e-10, abs=0.0
        )


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
        lhs = covariance_via_kernel(0.3, UniformGrid(1.0, 1), 1, 1, rtol=1e-8)
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


def extended_inner(h: float, phi: StepFunction, t: float) -> float:
    """Oracle: <phi, 1_[0,t]> = int_0^T phi_s dR/ds(s, t) ds with no quadrature.

    Against piecewise-constant phi the integral telescopes through the
    antiderivative s -> R(s, t) to sum_i a_i (R(t_{i+1}, t) - R(t_i, t)).
    """
    grid = phi.grid
    grid.index_of(t)  # t must be a grid time
    return math.fsum(phi.coefficients * np.diff(covariance(h, grid.nodes(), t)))


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


class TestKStar:
    def test_indicator_support(self):
        # (K* 1_[0,t])(s) = K_H(t, s) for s < t and 0 for s > t
        h = 0.3
        phi = StepFunction.indicator(UniformGrid(1.0, 4), 2)  # 1_[0, 0.5)
        assert kstar_step(h, phi, 0.75) == 0.0
        assert kstar_step(h, phi, 0.3) == kernel_K(h, 0.5, 0.3)
        with pytest.raises(DomainError):
            kstar_step(h, phi, 0.5)

    def test_indicator_linearity_over_interval(self):
        # K*(1_[a,b])(s) = K*(1_[0,b])(s) - K*(1_[0,a])(s)
        h, a, b = 0.3, 0.25, 0.75
        grid = UniformGrid(1.0, 4)
        phi = StepFunction(grid, np.array([0.0, 1.0, 1.0, 0.0]))  # 1_[0.25, 0.75)
        for s in (0.1, 0.3, 0.6, 0.9):
            expected = (kernel_K(h, b, s) if s < b else 0.0) - (
                kernel_K(h, a, s) if s < a else 0.0
            )
            assert kstar_step(h, phi, s) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_step_reduces_to_indicator(self):
        h = 0.3
        grid = UniformGrid(1.0, 4)
        phi = StepFunction.indicator(grid, 3)
        for s in (0.2, 0.6, 0.8):
            expected = kernel_K(h, 0.75, s) if s < 0.75 else 0.0
            assert kstar_step(h, phi, s) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_constant_one_gives_horizon_kernel(self):
        h = 0.3
        grid = UniformGrid(1.0, 5)
        phi = StepFunction(grid, np.ones(5))
        for s in (0.15, 0.55, 0.9):
            assert kstar_step(h, phi, s) == pytest.approx(
                kernel_K(h, 1.0, s), rel=1e-12
            )

    def test_zero_function_maps_to_zero(self):
        phi = StepFunction(UniformGrid(1.0, 4), np.zeros(4))
        assert kstar_step(0.3, phi, 0.37) == 0.0

    def test_rejects_grid_node_evaluation(self):
        phi = StepFunction(UniformGrid(1.0, 4), np.array([1.0, 2.0, 0.0, 1.0]))
        with pytest.raises(DomainError):
            kstar_step(0.3, phi, 0.25)

    def test_agrees_with_direct_operator_formula(self):
        # Independent oracle: evaluate the operator's defining formula
        # K(T,s) phi(s) + int_s^T (phi(t) - phi(s)) dK/dt(t,s) dt directly,
        # with the t-integral done by quadrature of the closed-form
        # derivative over each cell above s.
        h = 0.3
        grid = UniformGrid(1.0, 4)
        rng = np.random.default_rng(61)
        phi = StepFunction(grid, rng.standard_normal(4))
        nodes = grid.nodes()

        def direct(s: float) -> float:
            i = int(s / grid.dt)
            total = kernel_K(h, 1.0, s) * phi.coefficients[i]
            for j in range(i + 1, grid.n):
                diff = phi.coefficients[j] - phi.coefficients[i]
                piece, err = quad(
                    lambda t: kernel_dKdt(h, t, s), nodes[j], nodes[j + 1],
                    epsabs=0, epsrel=1e-10,
                )
                total += diff * piece
            return total

        for s in (0.1, 0.3, 0.6, 0.85):
            assert kstar_step(h, phi, s) == pytest.approx(direct(s), rel=1e-8)


class TestInnerProduct:
    def test_indicators_reproduce_covariance(self):
        h = 0.3
        grid = UniformGrid(1.0, 4)
        phi = StepFunction.indicator(grid, 3)  # 1_[0, 0.75]
        psi = StepFunction.indicator(grid, 2)  # 1_[0, 0.5]
        value = inner_product_H(h, phi, psi, rtol=1e-6)
        assert value == pytest.approx(covariance(h, 0.75, 0.5), rel=1e-4)

    def test_symmetry(self):
        h = 0.35
        grid = UniformGrid(1.0, 4)
        rng = np.random.default_rng(3)
        phi = StepFunction(grid, rng.standard_normal(4))
        psi = StepFunction(grid, rng.standard_normal(4))
        a = inner_product_H(h, phi, psi, rtol=1e-6)
        b = inner_product_H(h, psi, phi, rtol=1e-6)
        assert abs(a - b) < 1e-12

    def test_positive_semidefinite(self):
        h = 0.3
        grid = UniformGrid(1.0, 4)
        rng = np.random.default_rng(11)
        for _ in range(3):
            phi = StepFunction(grid, rng.standard_normal(4))
            assert inner_product_H(h, phi, phi, rtol=1e-6) >= 0.0

    def test_range_stops_at_earlier_last_jump(self):
        h = 0.3
        grid = UniformGrid(1.0, 6)
        zero = StepFunction(grid, np.zeros(6))
        phi = StepFunction(grid, np.array([0.7, -1.2, 0.4, 1.1, 0.0, 0.0]))  # ends at 2/3
        psi = StepFunction(grid, np.array([-0.5, 0.9, 0.0, 0.0, 1.3, 0.6]))  # ends at T
        assert inner_product_H(h, zero, psi) == 0.0
        full, _ = quad(lambda s: kstar_step(h, phi, s) * kstar_step(h, psi, s), 0.0, 1.0,
                       points=list(grid.nodes()[1:-1]), epsabs=0, epsrel=1e-10, limit=400)
        assert inner_product_H(h, phi, psi, rtol=1e-10) == pytest.approx(full, rel=1e-10)

    def test_requires_shared_grid(self):
        phi = StepFunction.indicator(UniformGrid(1.0, 4), 2)
        psi = StepFunction.indicator(UniformGrid(1.0, 8), 2)
        with pytest.raises(DomainError):
            inner_product_H(0.3, phi, psi)


class TestExtendedInner:
    def test_indicator_recovers_covariance(self):
        h = 0.3
        grid = UniformGrid(1.0, 8)
        for k, t_idx in [(2, 6), (4, 4), (6, 2)]:
            phi = StepFunction.indicator(grid, k)
            t = grid.node(t_idx)
            assert extended_inner(h, phi, t) == pytest.approx(
                covariance(h, grid.node(k), t), rel=1e-10
            )

    def test_zero_function(self):
        phi = StepFunction(UniformGrid(1.0, 4), np.zeros(4))
        assert extended_inner(0.3, phi, 0.5) == 0.0

    def test_agrees_with_inner_product_on_steps(self):
        h = 0.3
        grid = UniformGrid(1.0, 4)
        rng = np.random.default_rng(40)
        phi = StepFunction(grid, rng.standard_normal(4))
        for t_idx in (2, 3):
            psi = StepFunction.indicator(grid, t_idx)
            via_quadrature = inner_product_H(h, phi, psi, rtol=1e-6)
            via_derivative = extended_inner(h, phi, grid.node(t_idx))
            assert via_quadrature == pytest.approx(via_derivative, rel=2e-4)

    def test_requires_grid_time(self):
        phi = StepFunction.indicator(UniformGrid(1.0, 4), 2)
        with pytest.raises(DomainError):
            extended_inner(0.3, phi, 0.3)


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


def test_nonconvergent_quadrature_reports_achieved_error():
    # one subdivision cannot resolve a fast oscillation at this tolerance, and
    # quadpack's failure counts however small the integral is
    for scale in (1.0, 1e-20):
        with pytest.raises(QuadratureError) as err:
            _quad(lambda x: scale * np.sin(1e4 * x * x), 0.0, 1.0, rtol=1e-12, limit=1)
        assert err.value.achieved > 0.0


def test_overflowing_integrand_is_a_quadrature_error():
    with pytest.raises(QuadratureError, match="overflowed"):
        _quad(lambda x: 10.0 ** (400 * x), 0.0, 1.0, rtol=1e-7)
