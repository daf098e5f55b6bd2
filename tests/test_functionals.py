import numpy as np
import pytest

from rhlab.dynamics import SolverConfig, Stepper
from rhlab.functionals import (
    c1_triple,
    e_arnold1,
    e_arnold2,
    e_deg1_a,
    e_deg1_b,
    e_deg2,
    e_deg2_max,
    energy_proxy,
)
from rhlab.harmonics import (
    E2Coeffs,
    SpectralField,
    e2_to_spectral,
    from_coeff_dict,
    norm_l2,
)
from rhlab.operators import sin_theta_field
from rhlab.rh_waves import exact_state, make_rh
from rhlab.rotations import rotate_polar
from tests.conftest import random_spectral


def deg1_field(L, a, b):
    # a Y_1^0 + b Y_1^1 + (-conj(b)) Y_1^{-1}
    return from_coeff_dict(L, {(1, 0): a, (1, 1): b})


class TestDeg1A:
    def test_value_at_the_reference_itself(self):
        a, b = 0.7, 0.4 - 0.2j
        c = -np.conj(b)
        f = deg1_field(6, a, b)
        assert e_deg1_a(f, (a, b, c)) == pytest.approx(
            4.0 * (a**2 + abs(b)**2 + abs(c)**2))

    def test_zero_field(self):
        f = from_coeff_dict(6, {})
        a, b = 0.5, 0.1 + 0.3j
        assert e_deg1_a(f, (a, b, -np.conj(b))) == pytest.approx(
            a**2 + 2.0 * abs(b)**2)

    def test_cancellation(self):
        a, b = 0.7, 0.4 - 0.2j
        f = deg1_field(6, -a, -b)
        assert e_deg1_a(f, (a, b, -np.conj(b))) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_reality_violation(self, rng):
        f = random_spectral(4, rng)
        with pytest.raises(ValueError, match="conj"):
            e_deg1_a(f, (1.0, 1.0, 1.0))


class TestDeg1B:
    def test_value_on_degree_one_field(self):
        a, b = 0.8, 0.3 + 0.4j
        f = deg1_field(6, a, b)
        assert e_deg1_b(f, a) == pytest.approx(a**2 + abs(b)**2)

    def test_no_degree_one_content(self):
        f = from_coeff_dict(6, {(2, 1): 1.0})
        assert e_deg1_b(f, 0.9) == 0.0

    def test_polar_rotation_invariance(self, rng):
        f = random_spectral(7, rng)
        v1 = e_deg1_b(f, 0.6)
        v2 = e_deg1_b(rotate_polar(f, 1.7), 0.6)
        assert v2 == pytest.approx(v1, abs=1e-12)


class TestArnold1:
    def test_sin_theta_value(self):
        assert e_arnold1(sin_theta_field(5), 0.0) == pytest.approx(np.pi / 3.0)

    def test_zero_field(self):
        assert e_arnold1(from_coeff_dict(5, {}), 1.2) == 0.0

    def test_strict_convexity_probe(self, rng):
        f = random_spectral(8, rng)
        g = random_spectral(8, np.random.default_rng(99))
        mid = SpectralField(8, 0.5 * (f.coeffs + g.coeffs))
        assert e_arnold1(mid, 0.0) < 0.5 * (e_arnold1(f, 0.0) + e_arnold1(g, 0.0))


class TestArnold2:
    def test_reduces_without_degree_one_reference(self, rng):
        f = random_spectral(7, rng)
        ref = from_coeff_dict(7, {(3, 0): 1.0})
        c1m, c10, c1p = c1_triple(f)
        expected = e_arnold1(f, 0.4) - (c10**2 + 2.0 * abs(c1p)**2) / 6.0
        assert e_arnold2(f, 0.4, ref) == pytest.approx(expected, rel=1e-13)

    def test_degree_two_fields(self):
        f = e2_to_spectral(E2Coeffs(0.3, 0.1, -0.2, 0.5, 0.4), 6)
        ref = from_coeff_dict(6, {(4, 0): 1.0})
        assert e_arnold2(f, 0.9, ref) == pytest.approx(norm_l2(f)**2 / 12.0, rel=1e-13)

    def test_flow_invariance(self):
        L = 12
        Y = e2_to_spectral(E2Coeffs(0.5, 0.3, 0.1, 0.2, 0.1), L)
        s = make_rh(0.3, 0.7, Y)
        z0 = exact_state(s, 0.0)
        pert = random_spectral(L, np.random.default_rng(5), max_degree=5)
        z0 = SpectralField(L, z0.coeffs + 0.01 * pert.coeffs / norm_l2(pert))
        cfg = SolverConfig(L=L, omega=0.3, dt=1e-3, t_end=1.0)
        st = Stepper(cfg)
        v0 = e_arnold2(z0, 0.3, z0)
        z = z0
        for k in range(1000):
            z = st.step(z)
        assert e_arnold2(z, 0.3, z0) == pytest.approx(v0, rel=1e-6)


class TestDeg2:
    def test_maximum_on_traveling_state(self):
        L = 8
        alpha = 0.9
        Y = e2_to_spectral(E2Coeffs(0.5, 0.3, 0.1, 0.2, 0.1), L)
        f = SpectralField(L, sin_theta_field(L, alpha).coeffs + Y.coeffs)
        assert e_deg2(f, alpha) == pytest.approx(
            e_deg2_max(alpha, norm_l2(Y)**2), rel=1e-13)

    def test_pure_degree_two_at_zero_alpha(self):
        Y = e2_to_spectral(E2Coeffs(0.2, -0.1, 0.4, 0.0, 0.3), 6)
        assert e_deg2(Y, 0.0) == pytest.approx(norm_l2(Y)**2 / 12.0, rel=1e-13)

    def test_single_degree_three_harmonic(self):
        f = from_coeff_dict(6, {(3, 0): 1.0})
        assert e_deg2(f, 0.0) == pytest.approx(1.0 / 24.0)

    def test_polar_rotation_invariance(self, rng):
        f = random_spectral(9, rng)
        assert e_deg2(rotate_polar(f, 0.9), 0.7) == pytest.approx(
            e_deg2(f, 0.7), abs=1e-12)
