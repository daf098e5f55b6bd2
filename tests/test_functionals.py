import numpy as np
import pytest

from rhlab.functionals import (
    c1_phase_corrected,
    c1_triple,
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
from rhlab.rotations import rotate_polar
from tests.conftest import random_spectral


class TestEnergyProxy:
    def test_sin_theta_value(self):
        assert energy_proxy(sin_theta_field(5)) == pytest.approx(2.0 * np.pi / 3.0)

    def test_zero_field(self):
        assert energy_proxy(from_coeff_dict(5, {})) == 0.0

    def test_strict_convexity_probe(self, rng):
        f = random_spectral(8, rng)
        g = random_spectral(8, np.random.default_rng(99))
        mid = SpectralField(8, 0.5 * (f.coeffs + g.coeffs))
        assert energy_proxy(mid) < 0.5 * (energy_proxy(f) + energy_proxy(g))


class TestC1Triple:
    def test_reads_degree_one_coefficients(self):
        a, b = 0.7, 0.4 - 0.2j
        f = from_coeff_dict(6, {(1, 0): a, (1, 1): b, (2, 1): 0.3})
        assert c1_triple(f) == pytest.approx((-np.conj(b), a, b), abs=1e-15)

    def test_no_degree_one_content(self):
        f = from_coeff_dict(6, {(2, 1): 1.0, (3, 0): 0.5})
        assert c1_triple(f) == (0.0, 0.0, 0.0)

    def test_phase_correction_undoes_precession(self):
        # c_1^1 of an Euler solution turns as e^{i omega t}
        a, b, omega, t = 0.7, 0.4 - 0.2j, 0.3, 2.5
        f = from_coeff_dict(6, {(1, 0): a, (1, 1): b * np.exp(1j * omega * t)})
        got = c1_phase_corrected(f, omega, t)
        assert np.abs(got - np.array([-np.conj(b), a, b])).max() < 1e-15


class TestDeg2:
    def test_maximum_on_traveling_state(self):
        L = 8
        alpha = 0.9
        Y = e2_to_spectral(E2Coeffs(0.5, 0.3, 0.1, 0.2, 0.1), L)
        f = SpectralField(L, sin_theta_field(L, alpha).coeffs + Y.coeffs)
        assert e_deg2(f, alpha) == pytest.approx(
            e_deg2_max(alpha, norm_l2(Y)**2), rel=1e-13)

    def test_class_maximum_overflow_names_alpha(self):
        with pytest.raises(OverflowError) as err:
            e_deg2_max(1e200, 1.0)
        assert str(err.value) == "alpha = 1e+200"

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
