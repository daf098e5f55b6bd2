import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhlab.harmonics import (
    E2Coeffs,
    e2_to_spectral,
    eval_point,
    from_coeff_dict,
    norm_l2,
    spectral_to_e2,
)
from rhlab.invariants_algebra import moments_numeric, same_o3_orbit
from rhlab.rotations import (
    angular_momentum,
    euler_to_matrix,
    matrix_to_euler,
    reflect_longitude,
    rotate_polar,
    rotate_so3,
    rotate_wigner,
    wigner_d,
)
from tests.conftest import random_spectral


class TestRotatePolar:
    def test_zero_angle_is_identity(self, rng):
        f = random_spectral(6, rng)
        assert np.array_equal(rotate_polar(f, 0.0).coeffs, f.coeffs)

    def test_full_turn_is_identity(self, rng):
        f = random_spectral(6, rng)
        assert np.abs(rotate_polar(f, 2.0 * np.pi).coeffs - f.coeffs).max() < 1e-14

    @given(beta=st.floats(-6.0, 6.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pointwise_shift(self, beta, seed):
        f = random_spectral(7, np.random.default_rng(seed))
        r = rotate_polar(f, beta)
        assert eval_point(r, 0.3, -0.2) == pytest.approx(
            eval_point(f, 0.3 + beta, -0.2), abs=1e-11)

    def test_group_law(self, rng):
        f = random_spectral(8, rng)
        lhs = rotate_polar(rotate_polar(f, 0.4), 1.1)
        rhs = rotate_polar(f, 1.5)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-13


class TestReflectLongitude:
    def test_fixes_zonal_fields(self):
        zon = from_coeff_dict(6, {(1, 0): 1.0, (4, 0): -0.3})
        assert np.abs(reflect_longitude(zon).coeffs - zon.coeffs).max() < 1e-13

    def test_flips_odd_phi_mode(self):
        # cos^2(theta) sin(2 phi) is odd under phi -> -phi
        c = e2_to_spectral(E2Coeffs(0.0, 0.0, 0.0, 0.0, 1.0), 4)
        assert np.abs(reflect_longitude(c).coeffs + c.coeffs).max() < 1e-13

    def test_involution(self, rng):
        f = random_spectral(9, rng)
        twice = reflect_longitude(reflect_longitude(f))
        assert np.abs(twice.coeffs - f.coeffs).max() < 1e-13

    def test_equals_coefficient_conjugation(self, rng):
        # f(-phi) has conjugated coefficients; reflect_longitude implements
        # that identity, so the pointwise check below is the oracle
        f = random_spectral(9, rng)
        r = reflect_longitude(f)
        assert np.abs(r.coeffs - np.conj(f.coeffs)).max() < 1e-13
        phi = rng.uniform(-np.pi, np.pi, 50)
        theta = rng.uniform(-np.pi / 2, np.pi / 2, 50)
        assert np.abs(eval_point(r, phi, theta) - eval_point(f, -phi, theta)).max() < 1e-12


class TestRotateSO3:
    def test_consistent_with_polar_rotation(self, rng):
        f = random_spectral(7, rng)
        b = 0.8
        assert np.abs(rotate_so3(f, (b, 0.0, 0.0)).coeffs
                      - rotate_polar(f, -b).coeffs).max() < 1e-12

    def test_isometry(self, rng):
        f = random_spectral(8, rng)
        r = rotate_so3(f, (0.4, 1.1, -0.8))
        assert norm_l2(r) == pytest.approx(norm_l2(f), rel=1e-11)

    def test_preserves_moments(self, rng):
        f = random_spectral(6, rng, max_degree=4)
        r = rotate_so3(f, (1.2, 0.5, 2.2))
        mf = moments_numeric(f, 7)
        mr = moments_numeric(r, 7)
        for a, b in zip(mf, mr):
            assert b == pytest.approx(a, rel=1e-10, abs=1e-10)

    def test_preserves_degree_subspaces(self, rng):
        L = 8
        f = from_coeff_dict(L, {(3, 0): 0.5, (3, 2): 1.0 - 0.5j})
        r = rotate_so3(f, (0.3, 0.9, -1.4))
        energy = np.abs(r.coeffs) ** 2
        energy[1:] *= 2.0
        total = energy.sum()
        off = total - energy[:, 3].sum()
        assert off < 1e-10 * total

    def test_quarter_turn_of_zonal_stays_on_rotation_orbit(self):
        c = from_coeff_dict(4, {(2, 0): 1.0})
        r = rotate_so3(c, (0.0, np.pi / 2, 0.0))
        y = spectral_to_e2(r, tol=1e-9)
        y0 = spectral_to_e2(c)
        assert same_o3_orbit(y, y0)

    def test_euler_matrix_is_rotation(self):
        R = euler_to_matrix((0.3, 1.2, -0.7))
        assert np.abs(R @ R.T - np.eye(3)).max() < 1e-14
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-14)


GIMBAL_LOCK_EULERS = [(0.3, 0.0, 0.5), (0.3, 1e-9, 0.5), (0.2, np.pi, 0.4),
                      (0.2, np.pi - 1e-9, 0.4)]


EULERS = [(0.9, 0.6, -1.1), (-2.0, 2.5, 3.0)] + GIMBAL_LOCK_EULERS


class TestWignerRotation:
    @pytest.mark.parametrize("euler, L, rtol", [
        *(pytest.param(euler, L, 1e-13, id=f"euler{i}-{L}")
          for i, euler in enumerate(EULERS) for L in (5, 21)),
        # where the oracle's Legendre table once raised MemoryError;
        # measured 2.7e-12 of the largest coefficient
        pytest.param(EULERS[0], 90, 1e-11, id="euler0-90"),
    ])
    def test_equals_grid_rotation(self, euler, L, rtol):
        # rotate_so3 resamples on the grid: an independent route to D(R) c
        f = random_spectral(L, np.random.default_rng(L))
        want = rotate_so3(f, euler).coeffs
        got = rotate_wigner(f, euler).coeffs
        assert np.abs(got - want).max() < rtol * np.abs(want).max()

    def test_grid_rotation_memory_does_not_grow_with_its_grid(self):
        # eval_point streams the Legendre recurrence over blocks of points:
        # measured 26 MB at L=64, where a table over all 33 800 points
        # took 1.2 GB
        f = random_spectral(64, np.random.default_rng(64))
        tracemalloc.start()
        try:
            rotate_so3(f, (0.9, 0.6, -1.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_generators_satisfy_the_commutation_relations(self):
        for j in range(6):
            Jx, Jy, Jz = angular_momentum(j)
            assert np.abs(Jx @ Jy - Jy @ Jx - 1j * Jz).max() < 1e-12
            assert np.abs(Jy @ Jz - Jz @ Jy - 1j * Jx).max() < 1e-12

    def test_small_d_is_orthogonal_and_a_one_parameter_group(self):
        for j in (1, 4, 9):
            d = wigner_d(j, 0.7)
            assert np.abs(d @ d.T - np.eye(2 * j + 1)).max() < 1e-13
            assert np.abs(wigner_d(j, 0.3) @ wigner_d(j, 0.4) - d).max() < 1e-13

    def test_small_d_at_zero_tilt_is_the_exact_identity(self):
        for j in (0, 1, 4, 9):
            assert np.array_equal(wigner_d(j, 0.0), np.eye(2 * j + 1))
            assert np.abs(wigner_d(j, 1e-300) - np.eye(2 * j + 1)).max() < 1e-14

    @pytest.mark.parametrize("euler", GIMBAL_LOCK_EULERS + [(1.0, 1.2, -2.0)])
    def test_matrix_to_euler_reproduces_the_matrix(self, euler):
        R = euler_to_matrix(euler)
        assert np.abs(euler_to_matrix(matrix_to_euler(R)) - R).max() < 1e-15
