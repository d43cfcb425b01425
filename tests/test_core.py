"""Tests for the core value types and seed derivation."""

import io
import math
import re

import numpy as np
import pytest

from rvlab.core import (
    LANE_PATH,
    LANE_XI,
    MAX_GRID_SIZE,
    MultiPath,
    SeedSpec,
    UniformGrid,
    check_hurst,
    ito_representation,
    write_path_csv,
)
from rvlab.bessel import require_variation_gate, theta_path
from rvlab.errors import DomainError
from rvlab.fbm import (
    covariance,
    fgn_autocovariance,
    sample_fbm_cholesky,
    sample_fbm_circulant,
    sample_fbm_multi,
)
from rvlab.ito import INTEGRANDS, divergence_reading, divergence_via_ito, divergence_via_ito_multi
from rvlab.kernel import constant_cH, covariance_via_kernel, kernel_K
from rvlab.variation import e_H


class TestHurstParam:
    @pytest.mark.parametrize("h", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, h):
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\)"):
            check_hurst(h)

    def test_accepts_interior(self):
        assert check_hurst(0.5) == 0.5
        assert check_hurst(0.01) == 0.01
        assert type(check_hurst(np.float64(0.3))) is float

    def test_require_rough_rejects_half(self):
        with pytest.raises(DomainError, match="the kernel requires H < 1/2, got H = 0.5"):
            check_hurst(0.5, "the kernel")
        assert check_hurst(0.49, "the kernel") == 0.49


_GRID = UniformGrid(1.0, 4)
_PATH_2D = MultiPath(_GRID, np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0], [1.0, 1.0], [2.0, 0.5]]))

# every public function of the package that takes the Hurst exponent, with
# valid other arguments
_HURST_ENTRY_POINTS = {
    "covariance": lambda h: covariance(h, 1.0, 0.5),
    "fgn_autocovariance": lambda h: fgn_autocovariance(h, 1, 0.25),
    "sample_fbm_cholesky": lambda h: sample_fbm_cholesky(h, _GRID, SeedSpec(0)),
    "sample_fbm_circulant": lambda h: sample_fbm_circulant(h, _GRID, SeedSpec(0)),
    "sample_fbm_multi": lambda h: sample_fbm_multi(h, 2, _GRID, SeedSpec(0)),
    "e_H": e_H,
    "theta_path": lambda h: theta_path(_PATH_2D, h),
    "require_variation_gate": lambda h: require_variation_gate(3, h),
    "divergence_reading": divergence_reading,
    "divergence_via_ito": lambda h: divergence_via_ito(
        INTEGRANDS["identity"], _GRID, _PATH_2D.values[:, 0], h
    ),
    "divergence_via_ito_multi": lambda h: divergence_via_ito_multi(
        INTEGRANDS["identity"], _PATH_2D, h
    ),
}
# the kernel operations, with the name each gives in its H < 1/2 error
_KERNEL_ENTRY_POINTS = {
    "constant_cH": (constant_cH, "the Volterra kernel constant"),
    "kernel_K": (lambda h: kernel_K(h, 1.0, 0.5), "the Volterra kernel"),
    "covariance_via_kernel": (
        lambda h: covariance_via_kernel(h, 0.5, 0.25), "the H-space inner product"
    ),
}
_ALL_ENTRY_POINTS = {
    **_HURST_ENTRY_POINTS, **{name: fn for name, (fn, _) in _KERNEL_ENTRY_POINTS.items()}
}


@pytest.mark.parametrize("h", [0.0, 1.0, -0.1, math.nan])
@pytest.mark.parametrize("name", sorted(_ALL_ENTRY_POINTS))
def test_every_hurst_entry_point_checks_h(name, h):
    _ALL_ENTRY_POINTS[name](0.45)  # valid arguments: no raise
    with pytest.raises(DomainError, match=r"must lie in \(0, 1\)"):
        _ALL_ENTRY_POINTS[name](h)


@pytest.mark.parametrize("name", sorted(_KERNEL_ENTRY_POINTS))
def test_kernel_entry_points_reject_half(name):
    fn, operation = _KERNEL_ENTRY_POINTS[name]
    with pytest.raises(DomainError, match=re.escape(f"{operation} requires H < 1/2")):
        fn(0.5)


class TestUniformGrid:
    def test_nodes_span_zero_to_horizon(self):
        grid = UniformGrid(2.0, 8)
        nodes = grid.nodes()
        assert nodes[0] == 0.0
        assert nodes[-1] == 2.0
        assert np.all(np.diff(nodes) > 0)
        assert len(nodes) == 9

    def test_rejects_bad_parameters(self):
        for horizon in (0.0, np.inf, np.nan):
            with pytest.raises(DomainError):
                UniformGrid(horizon, 4)
        with pytest.raises(DomainError):
            UniformGrid(1.0, 0)
        with pytest.raises(DomainError, match="grid size must not exceed"):
            UniformGrid(1.0, 10**310)  # horizon / n cannot convert n to float
        UniformGrid(1.0, MAX_GRID_SIZE)
        with pytest.raises(DomainError, match="embedding row"):
            UniformGrid(1.0, MAX_GRID_SIZE + 1)

    def test_index_of_roundtrips_nodes(self):
        grid = UniformGrid(1.0, 7)
        for i in range(8):
            assert grid.index_of(grid.node(i)) == i
        with pytest.raises(DomainError):
            grid.index_of(0.123)

    @pytest.mark.parametrize("t", [1e-300, -1e-10])
    def test_index_of_maps_only_zero_to_node_zero(self, t):
        # the tolerance is relative to the cell width, so a tiny t of either
        # sign is no node of a coarse grid
        with pytest.raises(DomainError, match="is not a node"):
            UniformGrid(1.0, 1).index_of(t)

    @pytest.mark.parametrize("horizon, n", [(1e-321, 4096), (5e-324, 2)])
    def test_rejects_cell_width_that_underflows(self, horizon, n):
        with pytest.raises(DomainError, match=f"horizon {horizon} over {n} cells underflows"):
            UniformGrid(horizon, n)


class TestPaths:
    def test_multipath_values_are_immutable(self):
        values = np.array([[0.0], [1.0], [-1.0]])
        path = MultiPath(UniformGrid(1.0, 2), values)
        assert path.values.flags.writeable is False
        values[1, 0] = 5.0  # the path holds its own copy
        assert path.values[1, 0] == 1.0

    def test_multipath_shape_checked(self):
        for values in (np.zeros(3), np.zeros((4, 1)), np.zeros((3, 0))):
            with pytest.raises(DomainError):
                MultiPath(UniformGrid(1.0, 2), values)

    def test_multipath_component_roundtrip(self):
        grid = UniformGrid(1.0, 2)
        values = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        mp = MultiPath(grid, values)
        assert mp.dimension == 2

    def test_multipath_zero_row_enforced(self):
        with pytest.raises(DomainError):
            MultiPath(UniformGrid(1.0, 1), np.array([[0.0, 0.1], [1.0, 1.0]]))


class TestSeedSpec:
    def test_stream_is_pure_function_of_fields(self):
        a = SeedSpec(123, 4).stream().standard_normal(8)
        b = SeedSpec(123, 4).stream().standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ_across_fields(self):
        base = SeedSpec(123, 4).stream().standard_normal(8)
        for other in (
            SeedSpec(124, 4).stream(),
            SeedSpec(123, 5).stream(),
            SeedSpec(123, 4).stream(component=1),
            SeedSpec(123, 4).stream(lane=1),
        ):
            assert not np.array_equal(base, other.standard_normal(8))

    @pytest.mark.parametrize(
        "lane, generator", [(LANE_PATH, np.random.Philox), (LANE_XI, np.random.SFC64)]
    )
    def test_each_lane_draws_from_its_bit_generator(self, lane, generator):
        # paths on Philox, xi on SFC64, both keyed by (master, replication, lane, component)
        bits = SeedSpec(123, 4).stream(2, lane).bit_generator
        assert type(bits) is generator
        assert bits.seed_seq.entropy == 123
        assert bits.seed_seq.spawn_key == (4, lane, 2)
        assert type(SeedSpec(123, 4).stream(2).bit_generator) is np.random.Philox

    def test_validation(self):
        with pytest.raises(DomainError):
            SeedSpec(-1)
        with pytest.raises(DomainError):
            SeedSpec(2**64)
        with pytest.raises(DomainError):
            SeedSpec(0, -1)

    def test_replicate_offsets_index(self):
        spec = SeedSpec(9, 3).replicate(4)
        assert spec.replication_index == 7
        assert spec.master_seed == 9


def test_ito_representation_drift_is_the_exact_time_weight():
    # g = 1 makes the drift weight * t^{2H} / (2H), integrated exactly per cell
    h, weight = 0.3, 0.7
    grid = UniformGrid(2.0, 8)
    f = np.linspace(1.0, 3.0, 9)
    x = ito_representation(f, weight, np.ones(9), grid, h)
    t = grid.nodes()
    assert x[0] == 0.0
    np.testing.assert_allclose(
        x, f - f[0] - weight * t ** (2 * h) / (2 * h), rtol=1e-13, atol=1e-15
    )


def test_write_path_csv_headers_and_values():
    grid = UniformGrid(1.0, 2)
    buf = io.StringIO()
    write_path_csv(MultiPath(grid, [[0.0], [0.5], [1.5]]), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,value"
    assert lines[1] == "0.0,0.0"
    assert lines[2] == "0.5,0.5"
    assert len(lines) == 4
    # every cell must round-trip through float()
    for line in lines[1:]:
        assert all(float(cell) is not None for cell in line.split(","))

    buf = io.StringIO()
    write_path_csv(MultiPath(grid, np.zeros((3, 3))), buf)
    out = buf.getvalue().splitlines()
    assert out[0] == "t,v1,v2,v3"
    assert out[1] == "0.0,0.0,0.0,0.0"
