import numpy as np
import pytest

from rhlab.harmonics import E2Coeffs, e2_to_spectral, from_coeff_dict
from rhlab.invariants_algebra import moments_numeric
from rhlab.operators import advection_tendency
from rhlab.rh_waves import exact_state, make_rh, rh_speed


def default_state(alpha=0.7, omega=0.3, L=10):
    Y = e2_to_spectral(E2Coeffs(0.5, 0.3, 0.1, 0.2, 0.1), L)
    return make_rh(omega, alpha, Y)


class TestMakeRH:
    def test_degree_two_speed(self):
        s = default_state(alpha=0.9, omega=0.2)
        assert s.degree_j == 2
        assert s.speed_c == pytest.approx(0.9 / 3.0 - 0.2)

    def test_degree_one_speed_without_zonal_part(self):
        Y = from_coeff_dict(6, {(1, 1): 1.0 + 0.5j})
        s = make_rh(0.4, 0.0, Y)
        assert s.speed_c == pytest.approx(-0.4)

    def test_degree_three_speed(self):
        Y = from_coeff_dict(6, {(3, 1): 1.0})
        s = make_rh(0.1, 1.2, Y)
        assert s.speed_c == pytest.approx(1.2 * (0.5 - 1.0 / 12.0) - 0.1)
        assert rh_speed(1.2, 0.1, 3) == s.speed_c

    def test_rejects_multi_degree(self):
        Y = from_coeff_dict(6, {(2, 0): 1.0, (3, 0): 1.0})
        with pytest.raises(ValueError, match="degree"):
            make_rh(0.0, 1.0, Y)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="nonzero"):
            make_rh(0.0, 1.0, from_coeff_dict(6, {}))

    @pytest.mark.parametrize("omega, alpha", [(np.nan, 1.0), (np.inf, 1.0), (0.3, -np.inf)])
    def test_rejects_non_finite_alpha_or_omega(self, omega, alpha):
        # the states it builds are not checked again
        with pytest.raises(ValueError, match="must be finite"):
            make_rh(omega, alpha, from_coeff_dict(6, {(2, 1): 1.0}))


class TestExactState:
    def test_initial_time(self):
        s = default_state()
        z = exact_state(s, 0.0)
        expected = s.Y.coeffs.copy()
        expected[0, 1] += s.alpha * np.sqrt(4.0 * np.pi / 3.0)
        assert np.abs(z.coeffs - expected).max() < 1e-14

    def test_zonal_spherical_part_is_time_independent(self):
        Y = from_coeff_dict(6, {(2, 0): 1.0})
        s = make_rh(0.3, 0.8, Y)
        assert np.abs(exact_state(s, 3.7).coeffs - exact_state(s, 0.0).coeffs).max() < 1e-14

    def test_balanced_degree_two_is_time_independent(self):
        # degree 2 with alpha = 3 omega has zero traveling speed
        s = default_state(alpha=0.9, omega=0.3)
        assert s.speed_c == pytest.approx(0.0, abs=1e-15)
        assert np.abs(exact_state(s, 5.0).coeffs - exact_state(s, 0.0).coeffs).max() < 1e-14

    def test_degree_one_wave_travels_at_minus_omega(self):
        # without a zonal part the degree-1 coefficient turns as e^{-i m c t}, c = -omega
        Y = from_coeff_dict(6, {(1, 1): 1.0})
        s = make_rh(0.5, 0.0, Y)
        assert exact_state(s, 1.0).coeffs[1, 1] == pytest.approx(np.exp(0.5j), abs=1e-14)

    def test_full_revolution(self):
        s = default_state()
        assert s.speed_c != 0.0
        t = 2.0 * np.pi / s.speed_c
        assert np.abs(exact_state(s, t).coeffs - exact_state(s, 0.0).coeffs).max() < 1e-13

    def test_solves_transport_equation(self):
        # tendency of the closed form equals its central time difference
        s = default_state(L=12)
        t, dt = 1.3, 1e-5
        z = exact_state(s, t)
        tend = advection_tendency(z, s.omega)
        fd = (exact_state(s, t + dt).coeffs - exact_state(s, t - dt).coeffs) / (2.0 * dt)
        assert np.abs(tend.coeffs - fd).max() < 1e-7

    def test_moments_constant_along_evolution(self):
        s = default_state(L=8)
        m0 = moments_numeric(exact_state(s, 0.0), 7)
        m1 = moments_numeric(exact_state(s, 2.1), 7)
        for a, b in zip(m0, m1):
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)

