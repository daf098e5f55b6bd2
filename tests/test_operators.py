import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhlab.dynamics import SolverConfig, Stepper
from rhlab.grid import build_grid, integrate
from rhlab.harmonics import (
    E2Coeffs,
    SpectralField,
    e2_to_spectral,
    from_coeff_dict,
    inner_l2,
    norm_l2,
    synthesize_dphi,
    synthesize_dtheta,
    synthesize_gradients,
)
from rhlab.operators import (
    advection_tendency,
    green,
    poincare_gap,
    project_band,
    sin_theta_field,
    stream_function,
)
from tests.conftest import random_spectral, reference_coupled_tendency


class TestGreen:
    def test_sin_theta_halves(self):
        s = sin_theta_field(5)
        assert np.abs(green(s).coeffs - 0.5 * s.coeffs).max() == 0.0

    def test_inverse_of_negative_laplacian(self, rng):
        f = random_spectral(9, rng)
        j = np.arange(f.L + 1)
        back = green(f).coeffs * (-j * (j + 1.0))[None, :]
        assert np.abs(back + f.coeffs).max() < 1e-13 * np.abs(f.coeffs).max()

    def test_degree_one_and_three_eigenvalues(self):
        c = from_coeff_dict(4, {(1, 1): 1.0 + 2.0j, (3, 0): 1.2})
        out = green(c)
        assert out.coeffs[1, 1] == pytest.approx((1.0 + 2.0j) / 2.0)
        assert out.coeffs[0, 3] == pytest.approx(0.1)

    def test_degree_two_scaling(self):
        c = from_coeff_dict(4, {(2, 1): 3.0 - 1.0j})
        assert green(c).coeffs[1, 2] == pytest.approx((3.0 - 1.0j) / 6.0)

    def test_rejects_nonzero_mean(self):
        c = from_coeff_dict(3, {(0, 0): 1.0})
        with pytest.raises(ValueError, match="zero-mean"):
            green(c)


class TestProjectBand:
    def test_keeps_low_degrees(self):
        c = from_coeff_dict(4, {(1, 0): 1.0, (2, 0): 1.0})
        low = project_band(c, 1)
        assert low.coeffs[0, 1] == 1.0 and low.coeffs[0, 2] == 0.0

    def test_complement_kills_low_degrees(self):
        c = from_coeff_dict(4, {(1, 0): 1.0})
        assert np.abs(project_band(c, 1, complement=True).coeffs).max() == 0.0

    def test_pythagoras(self, rng):
        f = random_spectral(11, rng)
        low = project_band(f, 4)
        high = project_band(f, 4, complement=True)
        assert norm_l2(low) ** 2 + norm_l2(high) ** 2 == pytest.approx(
            norm_l2(f) ** 2, rel=1e-12)

    def test_rejects_degree_out_of_range(self, rng):
        with pytest.raises(ValueError):
            project_band(random_spectral(4, rng), 9)


def velocity(zeta, omega, spec):
    """(u_phi, u_theta) = (-d_theta psi, d_phi psi / cos(theta)) of the stream of zeta."""
    dpsi_phi, dpsi_th = synthesize_gradients((stream_function(zeta, omega),), spec)[:, 0]
    return -dpsi_th, dpsi_phi / spec.cos_theta[:, None]


class TestVelocity:
    # sign conventions of stream_function and synthesize_gradients, read
    # as the velocity of the flow
    def test_solid_rotation(self):
        L = 6
        spec = build_grid(L)
        u_phi, u_theta = velocity(from_coeff_dict(L, {}), 1.0, spec)
        assert np.abs(u_phi + spec.cos_theta[:, None]).max() < 1e-13
        assert np.abs(u_theta).max() < 1e-13

    def test_zonal_vorticity_cancels_rotation(self):
        # the stream of 2 sin(theta) is sin(theta), so u_phi = +cos(theta)
        L = 6
        spec = build_grid(L)
        u_phi, u_theta = velocity(sin_theta_field(L, 2.0), 0.0, spec)
        assert np.abs(u_phi - spec.cos_theta[:, None]).max() < 1e-13
        assert np.abs(u_theta).max() < 1e-13

    def test_divergence_free_against_smooth_test_function(self, rng):
        # int u . grad(chi) = 0 for a rotated-gradient velocity field
        L = 10
        spec = build_grid(L)
        zeta = random_spectral(L, rng, max_degree=6)
        u_phi, u_theta = velocity(zeta, 0.7, spec)
        chi = random_spectral(L, rng, max_degree=4)
        dchi_phi = synthesize_dphi(chi, spec) / spec.cos_theta[:, None]
        dchi_th = synthesize_dtheta(chi, spec)
        integrand = u_phi * dchi_phi + u_theta * dchi_th
        assert abs(integrate(integrand, spec)) < 1e-10

    def test_zonal_input_has_no_meridional_flow(self):
        L = 8
        zon = from_coeff_dict(L, {(1, 0): 1.0, (3, 0): 0.4})
        spec = build_grid(L)
        _, u_theta = velocity(zon, 0.2, spec)
        assert np.abs(u_theta).max() < 1e-12


class TestAdvectionTendency:
    def test_zonal_is_steady(self):
        L = 10
        zon = from_coeff_dict(L, {(1, 0): 1.0, (3, 0): 0.5, (4, 0): -0.2})
        tend = advection_tendency(zon, 0.9)
        assert np.abs(tend.coeffs).max() < 1e-11

    def test_traveling_wave_tendency(self):
        # alpha sin(theta) + degree-2 Y advects itself at speed alpha/3 - omega
        L = 10
        alpha, omega = 0.7, 0.3
        Y = e2_to_spectral(E2Coeffs(0.5, 0.3, 0.1, 0.2, 0.1), L)
        zeta = SpectralField(L, sin_theta_field(L, alpha).coeffs + Y.coeffs)
        tend = advection_tendency(zeta, omega)
        c = alpha / 3.0 - omega
        m = np.arange(L + 1)
        expected = -c * zeta.coeffs * (1j * m)[:, None]
        assert np.abs(tend.coeffs - expected).max() < 1e-10

    @pytest.mark.parametrize("L", [21, 90, 170])
    def test_transport_is_skew(self, L):
        # the tendency is L2-orthogonal to zeta (enstrophy) and to its
        # stream (energy) up to roundoff, in both modes: coupled on the
        # default grid, prescribed by a stream of degree <= 3 through its
        # stencil; measured <= 5.2e-16 relative
        rng = np.random.default_rng(L)
        zeta = random_spectral(L, rng)
        psi = stream_function(zeta, 0.5)
        coupled = advection_tendency(zeta, 0.5)
        chi = random_spectral(L, rng, max_degree=3)
        stepper = Stepper(SolverConfig(L=L, omega=0.5, dt=1e-3, t_end=1.0, stream=chi))
        prescribed = stepper.tendency(zeta)
        for tendency, fields in ((coupled, (zeta, psi)), (prescribed, (zeta, chi))):
            for f in fields:
                bound = 1e-13 * norm_l2(tendency) * norm_l2(f)
                assert abs(inner_l2(tendency, f)) <= bound

    def test_resolution_independence_for_bandlimited_input(self, rng):
        L = 8
        f = random_spectral(L, rng)
        t1 = advection_tendency(f, 0.3, build_grid(L))
        t2 = advection_tendency(f, 0.3, build_grid(L, n_lat=4 * (L + 1), n_lon=8 * (L + 1)))
        assert np.abs(t1.coeffs - t2.coeffs).max() < 1e-11

    def test_output_zero_mean(self, rng):
        f = random_spectral(9, rng)
        assert advection_tendency(f, 0.1).coeffs[0, 0] == 0.0

    @pytest.mark.parametrize("L", [12, 21, 90])
    @pytest.mark.parametrize("grid", ["default", "padded", "odd n_lat"])
    def test_equals_the_public_composition_bit_for_bit(self, L, grid):
        # the array path runs the same operations in the same order as
        # stream_function -> synthesize_gradients -> Jacobian -> analyze
        spec = {"default": lambda: build_grid(L),
                "padded": lambda: build_grid(L + 5),
                "odd n_lat": lambda: build_grid(L, n_lat=2 * L + 3, n_lon=4 * L + 6)}[grid]()
        zeta = random_spectral(L, np.random.default_rng(L))
        want = reference_coupled_tendency(zeta, 0.7, spec).tobytes()
        assert advection_tendency(zeta, 0.7, spec).coeffs.tobytes() == want
        assert advection_tendency(zeta, 0.7, spec).coeffs.tobytes() == want  # reused regions


class TestPoincareGap:
    def test_equality_case_is_exact_zero(self):
        f = e2_to_spectral(E2Coeffs(0.4, -0.2, 0.9, 0.1, 0.3), 6)
        assert poincare_gap(f, 1) == 0.0

    def test_degree_three_value(self):
        # tail of degree 3 beyond j=1: 1/6 - 1/12
        f = from_coeff_dict(6, {(3, 0): 1.0})
        assert poincare_gap(f, 1) == pytest.approx(1.0 / 12.0, abs=1e-15)

    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed, j):
        f = random_spectral(9, np.random.default_rng(seed))
        assert poincare_gap(f, j) >= -1e-12

    def test_matches_projection_formulation(self, rng):
        f = random_spectral(10, rng)
        j = 2
        tail = project_band(f, j, complement=True)
        direct = (inner_l2(tail, tail) / ((j + 1.0) * (j + 2.0))
                  - inner_l2(tail, green(tail)))
        assert poincare_gap(f, j) == pytest.approx(direct, rel=1e-12, abs=1e-14)
