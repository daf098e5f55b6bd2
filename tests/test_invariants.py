import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhlab import grid, harmonics
from rhlab.grid import GridField, build_grid, exact_shape, integrate
from rhlab.harmonics import (
    E2Coeffs,
    SpectralField,
    e2_to_spectral,
    norm_l2,
    spectral_to_e2,
    synthesize,
)
from rhlab.invariants_algebra import (
    char_poly,
    invariants_csv_row,
    moments_analytic,
    moments_numeric,
    reduced_invariants,
    same_h_orbit_deg2,
    same_o3_orbit,
    solve_polysys,
    speo1_equations,
    verify_abcde_system,
)
from rhlab.operators import sin_theta_field
from rhlab.rotations import reflect_longitude, rotate_polar, rotate_so3
from tests.conftest import random_spectral

coeff = st.floats(-2.0, 2.0)
coeff5 = st.tuples(coeff, coeff, coeff, coeff, coeff)


def random_y(rng, scale=1.0):
    return E2Coeffs(*(scale * rng.standard_normal(5)))


def rotated_y(y, beta):
    f = rotate_polar(e2_to_spectral(y, 4), beta)
    return spectral_to_e2(f)


class TestMomentsAnalytic:
    def test_pure_zonal_background(self):
        ms = moments_analytic(0.9, E2Coeffs(0.0, 0.0, 0.0, 0.0, 0.0))
        assert ms.I[0] == pytest.approx(4.0 * np.pi * 0.9**2 / 3.0)
        # odd moments of sin(theta) vanish
        assert ms.I[1] == pytest.approx(0.0, abs=1e-15)
        assert ms.I[3] == pytest.approx(0.0, abs=1e-15)

    def test_pure_a_cube_moment(self):
        a = 0.7
        ms = moments_analytic(0.0, E2Coeffs(a, 0.0, 0.0, 0.0, 0.0))
        assert ms.I[1] == pytest.approx(64.0 * np.pi * a**3 / 35.0)

    def test_b_fields_none_at_zero_alpha(self):
        ms = moments_analytic(0.0, E2Coeffs(0.3, 0.1, 0.2, -0.4, 0.5))
        assert ms.b3 is None and ms.b4 is None and ms.b5 is None and ms.b6 is None
        with pytest.raises(ValueError, match="alpha"):
            ms.b_vector()

    @given(alpha=st.floats(-1.5, 1.5), y=coeff5)
    @settings(max_examples=25, deadline=None)
    def test_matches_quadrature(self, alpha, y):
        yc = E2Coeffs(*y)
        L = 4
        f = SpectralField(
            L, sin_theta_field(L, alpha).coeffs + e2_to_spectral(yc, L).coeffs)
        numeric = moments_numeric(f, 7)
        ms = moments_analytic(alpha, yc)
        for m, (m_num, m_ana) in enumerate(zip(numeric, ms.I), start=2):
            # a moment may cancel to ~0; scale roundoff by its natural
            # magnitude I2^(m/2)
            scale = max(1.0, abs(ms.I[0])) ** (m / 2.0)
            assert m_num == pytest.approx(m_ana, rel=1e-11, abs=1e-12 * scale)

    @given(alpha=st.floats(0.05, 2.0), y=coeff5)
    @settings(max_examples=40, deadline=None)
    def test_b_vector_rounds_the_exact_value(self, alpha, y):
        # oracle: b1..b6 as the polynomials of the system in the reduced
        # invariants, evaluated exactly on the same floats
        yc = E2Coeffs(*y)
        x = reduced_invariants(E2Coeffs(*map(Fraction, y))).as_tuple()
        want = [float(v) for v in speo1_equations(Fraction(alpha), x)]
        got = moments_analytic(alpha, yc).b_vector()
        for g, w in zip(got, want):
            assert abs(g - w) <= 4 * np.spacing(abs(w))

    def test_moments_numeric_rejects_small_order(self):
        f = e2_to_spectral(E2Coeffs(1.0, 0.0, 0.0, 0.0, 0.0), 4)
        with pytest.raises(ValueError):
            moments_numeric(f, 1)


class TestMomentsNumeric:
    @pytest.mark.parametrize("L", [7, 21, 90])
    def test_streamed_synthesis_matches_the_table_path(self, L):
        # oracle: powers of the tabled synthesis on the same
        # exact_shape(7L) grid (L=7: 25 latitudes, one on the equator);
        # roundoff scales with ||f||_2^m
        f = random_spectral(L, np.random.default_rng(L))
        spec = build_grid(L, *exact_shape(7 * L))
        vals = synthesize(f, spec).values
        norm = norm_l2(f)
        for m, I in zip(range(2, 8), moments_numeric(f, 7)):
            ref = integrate(GridField(values=vals**m, spec=spec))
            assert abs(I - ref) <= 1e-13 * norm**m

    def test_keeps_no_table(self):
        # the tabled path peaked at 10.1 MB and kept its 5.5 MB table
        L = 90
        f = random_spectral(L, np.random.default_rng(5))
        grid._shared_grid.cache_clear()
        tracemalloc.start()
        try:
            moments_numeric(f, 7)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4e6
        assert kept <= 0.1e6
        assert build_grid(L, *exact_shape(7 * L)) not in harmonics._TABLE_CACHE


class TestAbcdeIdentities:
    @given(alpha=st.floats(0.1, 2.0), y=coeff5)
    @settings(max_examples=40, deadline=None)
    def test_residuals_vanish(self, alpha, y):
        residuals, scales = verify_abcde_system(alpha, E2Coeffs(*y))
        for r, s in zip(residuals, scales):
            assert abs(r) <= 1e-10 * s

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            verify_abcde_system(0.0, E2Coeffs(1.0, 0.0, 0.0, 0.0, 0.0))


class TestPolynomialSystem:
    @given(alpha=st.floats(0.2, 2.0), y=coeff5)
    @settings(max_examples=40, deadline=None)
    def test_generic_recovery(self, alpha, y):
        yc = E2Coeffs(*y)
        b = moments_analytic(alpha, yc).b_vector()
        sols, tag = solve_polysys(alpha, b)
        truth = reduced_invariants(yc).as_tuple()
        if tag == "generic":
            assert len(sols) == 1
        assert any(
            max(abs(s - t) for s, t in zip(sol, truth)) < 1e-7 * max(1.0, *map(abs, truth))
            for sol in sols
        )

    def test_solutions_satisfy_equations(self):
        alpha = 0.8
        yc = E2Coeffs(0.4, -0.3, 0.2, 0.6, -0.1)
        b = moments_analytic(alpha, yc).b_vector()
        sols, _ = solve_polysys(alpha, b)
        for x in sols:
            lhs = speo1_equations(alpha, x)
            for l, bi in zip(lhs, b):
                assert l == pytest.approx(bi, rel=1e-8, abs=1e-8)

    def test_degenerate_branch_two_roots(self):
        alpha = 1.1
        b3 = alpha**2 / 4.0
        b1 = 11.0 * b3
        b5 = 0.37
        b2, b4 = b5, 3.0 * b5
        x1 = 0.25
        b6 = 2048.0 * b3 * x1**2 - 72.0 * b5 * x1 - 1904.0 * b3**2
        sols, tag = solve_polysys(alpha, (b1, b2, b3, b4, b5, b6))
        assert tag == "degenerate-quadratic"
        assert len(sols) == 2
        assert any(abs(s[0] - x1) < 1e-9 for s in sols)

    def test_degenerate_inconsistent_is_empty(self):
        alpha = 1.1
        b3 = alpha**2 / 4.0
        b1 = 11.0 * b3
        # violate the b2 = b5 consistency requirement
        sols, tag = solve_polysys(alpha, (b1, 1.0, b3, 0.9, 0.3, 0.0))
        assert tag == "degenerate-quadratic"
        assert sols == []

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            solve_polysys(0.0, (1.0,) * 6)


class TestHOrbitClassifiers:
    @given(y=coeff5, beta=st.floats(-3.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_deg2_rotation_invariance(self, y, beta):
        yc = E2Coeffs(*y)
        assert same_h_orbit_deg2(yc, rotated_y(yc, beta))

    def test_deg2_reflection_invariance(self):
        yc = E2Coeffs(0.4, -0.3, 0.2, 0.6, -0.1)
        yr = spectral_to_e2(reflect_longitude(e2_to_spectral(yc, 4)))
        assert same_h_orbit_deg2(yc, yr)

    def test_deg2_distinguishes_amplitude(self):
        yc = E2Coeffs(0.4, -0.3, 0.2, 0.6, -0.1)
        assert not same_h_orbit_deg2(yc, E2Coeffs(*(1.01 * v for v in yc.as_tuple())))

    def test_deg2_distinguishes_tilt(self):
        # rotating off the polar axis leaves the O(3) orbit invariant but
        # moves the field to a different polar-rotation orbit
        yc = E2Coeffs(0.8, 0.0, 0.0, 0.0, 0.0)
        f = rotate_so3(e2_to_spectral(yc, 4), (0.0, 0.7, 0.0))
        yt = spectral_to_e2(f)
        assert not same_h_orbit_deg2(yc, yt)
        assert same_o3_orbit(yc, yt)


def quad_form_matrix(y: E2Coeffs) -> np.ndarray:
    """The traceless symmetric 3x3 matrix whose quadratic form on the unit
    sphere equals the degree-2 field with coordinates (a, b, c, d, e): the
    oracle whose eigenvalues are the roots of char_poly."""
    a, b, c, d, e = y.as_tuple()
    return np.array([
        [d - a, e, b],
        [e, -d - a, c],
        [b, c, 2 * a],
    ])


class TestCharPolyAndO3:
    def test_matrix_is_traceless_symmetric(self):
        M = quad_form_matrix(E2Coeffs(0.4, -0.3, 0.2, 0.6, -0.1))
        assert np.trace(M) == pytest.approx(0.0, abs=1e-15)
        assert np.abs(M - M.T).max() == 0.0

    def test_char_poly_matches_eigenvalues(self):
        yc = E2Coeffs(0.4, -0.3, 0.2, 0.6, -0.1)
        p1, p0 = char_poly(yc)
        lam = np.linalg.eigvalsh(quad_form_matrix(yc))
        for l in lam:
            assert l**3 + p1 * l + p0 == pytest.approx(0.0, abs=1e-12)

    def test_pure_a_values(self):
        a = 0.9
        p1, p0 = char_poly(E2Coeffs(a, 0.0, 0.0, 0.0, 0.0))
        assert p1 == pytest.approx(-3.0 * a * a)
        assert p0 == pytest.approx(-2.0 * a**3)

    @given(y=coeff5)
    @settings(max_examples=25, deadline=None)
    def test_char_poly_from_low_moments(self, y):
        # with no zonal background, the quadratic-form invariants are
        # fixed by the first two moments alone
        yc = E2Coeffs(*y)
        ms = moments_analytic(0.0, yc)
        p1, p0 = char_poly(yc)
        assert p1 == pytest.approx(-ms.A / 4.0, rel=1e-12, abs=1e-12)
        assert p0 == pytest.approx(-ms.B / 2.0, rel=1e-12, abs=1e-12)

    @given(y=coeff5,
           euler=st.tuples(st.floats(0.0, 6.28), st.floats(0.0, 3.14),
                           st.floats(0.0, 6.28)))
    @settings(max_examples=15, deadline=None)
    def test_o3_invariance_under_rotation(self, y, euler):
        yc = E2Coeffs(*y)
        f = rotate_so3(e2_to_spectral(yc, 4), euler)
        assert same_o3_orbit(yc, spectral_to_e2(f, tol=1e-8))

    def test_o3_distinguishes_scaling(self):
        yc = E2Coeffs(0.4, -0.3, 0.2, 0.6, -0.1)
        y2 = E2Coeffs(*(2.0 * v for v in yc.as_tuple()))
        assert not same_o3_orbit(yc, y2)


class TestCSVRow:
    def test_field_count_and_values(self):
        yc = E2Coeffs(0.4, -0.3, 0.2, 0.6, -0.1)
        row = invariants_csv_row(yc, alpha=0.5)
        parts = [float(v) for v in row.split(",")]
        assert len(parts) == 12
        r = reduced_invariants(yc)
        assert parts[0] == r.a and parts[1] == pytest.approx(r.u)
        p1, p0 = char_poly(yc)
        assert parts[4] == pytest.approx(p1) and parts[5] == pytest.approx(p0)
        assert parts[6] == pytest.approx(moments_analytic(0.5, yc).I[0])
