import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhlab import grid
from rhlab.grid import GridField, build_grid, gauss_legendre, integrate
from rhlab.harmonics import synthesize
from rhlab.orbit_metrics import lp_distance
from rhlab.rotations import rotate_so3
from tests.conftest import random_spectral


class TestGaussLegendre:
    def test_single_node_is_midpoint(self):
        nodes, weights = gauss_legendre(1)
        assert nodes == pytest.approx([0.0])
        assert weights == pytest.approx([2.0])

    def test_two_nodes(self):
        # roots of (3 mu^2 - 1)/2
        nodes, weights = gauss_legendre(2)
        r = 1.0 / np.sqrt(3.0)
        assert nodes == pytest.approx([-r, r])
        assert weights == pytest.approx([1.0, 1.0])

    @given(n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_weights_sum_to_two(self, n):
        _, weights = gauss_legendre(n)
        assert abs(weights.sum() - 2.0) < 1e-14

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)

    @given(n=st.integers(min_value=2, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_exact_for_low_degree_monomials(self, n):
        nodes, weights = gauss_legendre(n)
        for k in range(0, 2 * n, 2):
            exact = 2.0 / (k + 1)
            assert np.dot(weights, nodes**k) == pytest.approx(exact, abs=1e-13)


class TestBuildGrid:
    def test_default_sizes(self):
        spec = build_grid(2)
        assert (spec.n_lat, spec.n_lon) == (6, 12)
        spec = build_grid(21)
        assert (spec.n_lat, spec.n_lon) == (44, 88)

    def test_rejects_undersized_latitudes(self):
        with pytest.raises(ValueError, match="n_lat"):
            build_grid(2, n_lat=2)

    def test_rejects_undersized_longitudes(self):
        with pytest.raises(ValueError, match="n_lon"):
            build_grid(4, n_lon=5)

    def test_nodes_strictly_increasing_and_pole_free(self):
        spec = build_grid(15)
        assert np.all(np.diff(spec.mu_nodes) > 0)
        assert spec.mu_nodes[0] > -1.0 and spec.mu_nodes[-1] < 1.0

    def test_weights_sum(self):
        spec = build_grid(9)
        assert abs(spec.weights.sum() - 2.0) < 1e-14


class TestGridCache:
    def test_equal_shapes_share_one_grid(self):
        L = 7
        assert build_grid(L) is build_grid(L, n_lat=2 * (L + 1), n_lon=4 * (L + 1))
        assert build_grid(L) is not build_grid(L, n_lat=4 * (L + 1))

    def test_at_most_two_grids_are_kept(self):
        first = build_grid(5)
        build_grid(6)
        build_grid(7)
        assert build_grid(5) is not first

    def test_cached_arrays_are_read_only(self):
        spec = build_grid(6)
        for arr in (spec.mu_nodes, spec.weights, spec.cos_theta, spec.phi):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_repeated_rotations_and_distances_build_each_grid_once(self, rng, monkeypatch):
        calls = []

        def counting_gauss_legendre(n):
            calls.append(n)
            return gauss_legendre(n)

        monkeypatch.setattr(grid, "gauss_legendre", counting_gauss_legendre)
        grid._shared_grid.cache_clear()
        L = 6
        f = random_spectral(L, rng)
        for euler in [(0.1, 0.2, 0.3), (1.0, -0.4, 2.0), (0.5, 1.5, -0.7)]:
            g = rotate_so3(f, euler)
            lp_distance(f, g, 2.0)
            lp_distance(f, g, 3.0)
        # the rotation grid 2(L+1) x 4(L+1) and the margin grid 4(L+1) x 4(L+1)
        assert sorted(calls) == [2 * (L + 1), 4 * (L + 1)]


class TestIntegrate:
    def test_constant(self):
        spec = build_grid(4)
        f = GridField(values=np.ones((spec.n_lat, spec.n_lon)), spec=spec)
        assert integrate(f) == pytest.approx(4.0 * np.pi, rel=1e-14)

    def test_sin_squared(self):
        spec = build_grid(4)
        vals = np.broadcast_to(spec.mu_nodes[:, None] ** 2,
                               (spec.n_lat, spec.n_lon)).copy()
        assert integrate(GridField(values=vals, spec=spec)) == pytest.approx(
            4.0 * np.pi / 3.0, rel=1e-14)

    def test_odd_in_mu(self):
        spec = build_grid(4)
        vals = np.broadcast_to(spec.mu_nodes[:, None],
                               (spec.n_lat, spec.n_lon)).copy()
        assert abs(integrate(GridField(values=vals, spec=spec))) < 1e-14

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, seed):
        spec = build_grid(6)
        r = np.random.default_rng(seed)
        f = r.normal(size=(spec.n_lat, spec.n_lon))
        g = r.normal(size=(spec.n_lat, spec.n_lon))
        lhs = integrate(GridField(values=a * f + b * g, spec=spec))
        rhs = (a * integrate(GridField(values=f, spec=spec))
               + b * integrate(GridField(values=g, spec=spec)))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) < 1e-13 * scale

    def test_zero_mean_harmonics_integrate_to_zero(self, rng):
        L = 10
        spec = build_grid(L)
        f = random_spectral(L, rng, zero_mean=True)
        g = synthesize(f, spec)
        assert abs(integrate(g)) < 1e-12
