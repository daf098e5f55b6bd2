import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhlab import cli, grid
from rhlab.grid import (
    GridField,
    build_grid,
    exact_shape,
    gauss_legendre,
    integrate,
    smooth_length,
)
from rhlab.harmonics import inner_l2, synthesize
from rhlab.invariants_algebra import moments_numeric
from rhlab.operators import advection_tendency
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

    @pytest.mark.parametrize("n", [19, 32, 136, 256, 316])
    def test_nodes_and_weights_mirror_exactly(self, n):
        # the half-latitude Legendre table stores only mu >= 0 and reads
        # the southern nodes as -mu, so the symmetry must hold bit for bit
        nodes, weights = gauss_legendre(n)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        if n % 2:
            assert nodes[n // 2] == 0.0


class TestBuildGrid:
    def test_default_sizes(self):
        # the 3/2 rule: ceil((3L+1)/2) latitudes, the smallest 5-smooth
        # length >= 3L+1 longitudes
        for L in (2, 12, 21, 90, 170):
            spec = build_grid(L)
            assert spec.n_lat == math.ceil((3 * L + 1) / 2)
            assert spec.n_lon == smooth_length(3 * L + 1)

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


class TestExactnessRule:
    def test_smooth_length_matches_brute_force(self):
        smooth = sorted(2**a * 3**b * 5**c
                        for a in range(12) for b in range(8) for c in range(6))
        for n in range(1, 2001):
            assert smooth_length(n) == next(s for s in smooth if s >= n)

    def test_exact_shape_integrates_products_exactly(self, rng):
        # f g has degree 2L; Parseval gives its integral
        for L in (4, 9, 20):
            n_lat, n_lon = exact_shape(2 * L)
            spec = build_grid(L, n_lat=n_lat, n_lon=n_lon)
            f, g = random_spectral(L, rng), random_spectral(L, rng)
            fg = synthesize(f, spec).values * synthesize(g, spec).values
            assert integrate(GridField(values=fg, spec=spec)) == pytest.approx(
                inner_l2(f, g), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("L", [6, 21, 42])
    def test_default_grid_tendency_is_alias_free(self, L, rng):
        f = random_spectral(L, rng)
        old = build_grid(L, n_lat=2 * (L + 1), n_lon=4 * (L + 1))
        ref = advection_tendency(f, 0.7, old).coeffs
        got = advection_tendency(f, 0.7, build_grid(L)).coeffs
        assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("L", [6, 21, 42])
    def test_smaller_grids_alias(self, L, rng):
        # the rule is tight up to its margin: one latitude or two
        # longitudes fewer than the smallest alias-free grid aliases
        f = random_spectral(L, rng)
        ref = advection_tendency(f, 0.7, build_grid(L)).coeffs
        for n_lat, n_lon in ((math.ceil((3 * L - 1) / 2) - 1, None), (None, 3 * L - 2)):
            got = advection_tendency(f, 0.7, build_grid(L, n_lat=n_lat, n_lon=n_lon)).coeffs
            assert np.abs(got - ref).max() > 1e-6 * np.abs(ref).max()

    @pytest.mark.parametrize("L", [21, 90])
    def test_moments_match_the_oversampled_quadrature(self, L, rng):
        # oracle: quadrature on the 4x larger (7L+1) x (14L+2) grid;
        # roundoff scales with int |f|^m
        f = random_spectral(L, rng)
        spec = build_grid(L, n_lat=7 * L + 1, n_lon=14 * L + 2)
        vals = synthesize(f, spec).values
        got = moments_numeric(f, 7)
        for m, I in zip(range(2, 8), got):
            ref = integrate(GridField(values=vals**m, spec=spec))
            scale = integrate(GridField(values=np.abs(vals)**m, spec=spec))
            assert abs(I - ref) < 1e-13 * scale


class TestGridCache:
    def test_equal_shapes_share_one_grid(self):
        L = 7
        assert build_grid(L) is build_grid(L, n_lat=math.ceil((3 * L + 1) / 2),
                                           n_lon=smooth_length(3 * L + 1))
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

    def test_so3_stability_sweep_builds_one_grid_once(self, tmp_path, monkeypatch):
        # the stepping grid, held by each epsilon's Stepper; p = 2 distances
        # rotate by Wigner matrices and take norms by Parseval, on no grid
        calls = []

        def counting_gauss_legendre(n):
            calls.append(n)
            return gauss_legendre(n)

        monkeypatch.setattr(grid, "gauss_legendre", counting_gauss_legendre)
        grid._shared_grid.cache_clear()
        config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "stability_so3.cfg"
        assert cli.main(["stability", "--config", str(config), "L=12", "t_end=0.1",
                         f"output_path={tmp_path / 'out.csv'}"]) == 0
        assert calls == [19]


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
