import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhlab import grid, orbit_metrics
from rhlab.grid import build_grid, gauss_legendre, integrate
from rhlab.harmonics import (
    E2Coeffs,
    SpectralField,
    e2_to_spectral,
    from_coeff_dict,
    norm_l2,
    synthesize,
    top_degree,
)
from rhlab.operators import sin_theta_field
from rhlab.orbit_metrics import (
    SO3_SEARCH_BYTES,
    _orbit_search,
    _so3_starts,
    dist_polar_orbit,
    dist_so3_orbit,
    lp_distance,
)
from rhlab.rotations import reflect_longitude, rotate_polar, rotate_so3, rotate_wigner
from tests.conftest import random_spectral

# how far a distance measured at one optimal orbit member may lie above one
# measured at another, relative to ||f|| + ||target||
ROUNDOFF = 1e-15


class TestLpDistance:
    def test_zero_for_equal_fields(self, rng):
        f = random_spectral(6, rng)
        assert lp_distance(f, f, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_p2_single_harmonic(self):
        f = from_coeff_dict(5, {(2, 0): 1.0, (3, 1): 0.5})
        g = from_coeff_dict(5, {(3, 1): 0.5})
        assert lp_distance(f, g, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_p4_of_zonal_band(self):
        # int |sin(theta)|^4 over the sphere is 4 pi / 5
        alpha = 0.7
        f = sin_theta_field(5, alpha)
        g = from_coeff_dict(5, {})
        assert lp_distance(f, g, 4.0) == pytest.approx(
            alpha * (4.0 * np.pi / 5.0) ** 0.25, rel=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), p=st.floats(1.5, 6.0))
    @settings(max_examples=15, deadline=None)
    def test_triangle_inequality(self, seed, p):
        r = np.random.default_rng(seed)
        f = random_spectral(5, r)
        g = random_spectral(5, r)
        h = random_spectral(5, r)
        assert lp_distance(f, h, p) <= (
            lp_distance(f, g, p) + lp_distance(g, h, p) + 1e-10)

    @pytest.mark.parametrize("L", [6, 21, 90])
    def test_p2_matches_the_margin_grid_quadrature(self, L, rng):
        # oracle: the 4(L+1) x 4(L+1) quadrature that p != 2 integrates on
        f, g = random_spectral(L, rng), random_spectral(L, rng)
        spec = build_grid(L, n_lat=4 * (L + 1), n_lon=4 * (L + 1))
        vals = synthesize(SpectralField(L, f.coeffs - g.coeffs), spec)
        quad = integrate(vals**2, spec) ** 0.5
        assert lp_distance(f, g, 2.0) == pytest.approx(quad, rel=1e-12)

    def test_p2_builds_no_grid(self, rng, monkeypatch):
        calls = []

        def counting_gauss_legendre(n):
            calls.append(n)
            return gauss_legendre(n)

        monkeypatch.setattr(grid, "gauss_legendre", counting_gauss_legendre)
        grid._shared_grid.cache_clear()
        lp_distance(random_spectral(6, rng), random_spectral(6, rng), 2.0)
        assert calls == []

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_rejects_a_nonzero_structural_zero(self, p):
        # synthesis never reads C[m > j, j]: its grid integrates to 0,
        # while Parseval would count it; the field is rejected when built
        C = np.zeros((4, 4), dtype=complex)
        C[3, 1] = 1.0
        zero = SpectralField(3, np.zeros((4, 4), dtype=complex))
        with pytest.raises(ValueError, match=r"\(j, m\) = \(1, 3\)"):
            lp_distance(SpectralField(3, C), zero, p)
        C[2, 0] = 0.5  # the first stray slot in storage order is named
        with pytest.raises(ValueError, match=r"\(j, m\) = \(0, 2\)"):
            lp_distance(zero, SpectralField(3, C), p)

    @pytest.mark.parametrize("p", [1.0, 0.5, np.inf, np.nan])
    def test_rejects_bad_p(self, rng, p):
        f = random_spectral(4, rng)
        with pytest.raises(ValueError, match=r"p must lie in \(1, inf\)"):
            lp_distance(f, f, p)

    def test_rejects_mismatched_truncation(self, rng):
        with pytest.raises(ValueError, match="truncation"):
            lp_distance(random_spectral(4, rng), random_spectral(5, rng), 2.0)


def dense_polar_sweep(f, target, p, n=720, zooms=2, basins=1, n_zoom=720):
    """Brute-force min of lp_distance(f, rotate_polar(target, b), p): n
    uniform angles, then, from each of the `basins` best sampled local
    minima, `zooms` times n_zoom angles across the best sample's two
    neighbouring intervals.  The defaults are fine enough for a sharp
    minimum at L = 21; p = 2 rows that must agree to 1e-12 zoom further."""
    betas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    vals = np.array([lp_distance(f, rotate_polar(target, b), p) for b in betas])
    minima = np.flatnonzero((vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)))
    best = vals.min()
    for k in minima[np.argsort(vals[minima])][:basins]:
        beta, h = betas[k], betas[1] - betas[0]
        for _ in range(zooms):
            grid = np.linspace(beta - h, beta + h, n_zoom)
            vals = [lp_distance(f, rotate_polar(target, b), p) for b in grid]
            beta, h = grid[int(np.argmin(vals))], grid[1] - grid[0]
            best = min(best, min(vals))
    return best


def sampled_polar_search(f, target):
    """The p = 2 polar search that the exact roots replaced: min over beta of
    ||f - rotate_polar(target, beta)||, sampled and Newton-polished.

    c(beta) = Re[s_0 + 2 sum_m s_m e^{-i m beta}], s_m = sum_j f_j^m
    conj(t_j^m), is sampled by one irfft at 4(J+1) angles, J the top degree
    of target; its 8 best periodic local maxima take Newton steps in beta
    (only where c'' < 0, each at most 0.5 rad, until one is below 1e-10,
    and kept only if c did not drop), and the distance is measured at each
    polished angle whose c is within 1e-10 ||f|| ||target|| of the best.
    """
    J = top_degree(target)
    n = 4 * (J + 1)
    s = (f.coeffs * target.coeffs.conj()).sum(axis=1)[: J + 1]
    m = np.arange(J + 1)
    weight = np.where(m > 0, 2.0, 1.0) * s

    def derivatives(beta):
        e = weight * np.exp(-1j * m * beta)
        return e.sum().real, (-1j * m * e).sum().real, (-(m**2) * e).sum().real

    samples = n * np.fft.irfft(np.conj(np.pad(s, (0, n // 2 - J))), n)
    peaks = np.flatnonzero((samples >= np.roll(samples, 1)) & (samples >= np.roll(samples, -1)))
    polished = []
    for k in peaks[np.argsort(-samples[peaks], kind="stable")][:8]:
        beta = beta0 = 2.0 * np.pi * k / n
        c0 = derivatives(beta0)[0]
        for _ in range(30):
            _, g, H = derivatives(beta)
            step = -g / H if H < 0.0 else 0.0
            beta += float(np.clip(step, -0.5, 0.5))
            if abs(step) < 1e-10:
                break
        c = derivatives(beta)[0]
        polished.append((c, beta) if c >= c0 - 1e-12 * abs(c0) else (c0, beta0))
    top = max(c for c, _ in polished) - 1e-10 * norm_l2(f) * norm_l2(target)
    return min(lp_distance(f, rotate_polar(target, b), 2.0) for c, b in polished if c >= top)


class TestPolarOrbit:
    def test_exact_member_and_angle_recovery(self, rng):
        target = random_spectral(6, rng)
        beta0 = 1.234
        f = rotate_polar(target, beta0)
        d, beta = dist_polar_orbit(f, target)
        assert d < 1e-10 * norm_l2(target)
        assert beta == pytest.approx(beta0, abs=1e-8)

    def test_zonal_target_reduces_to_plain_distance(self, rng):
        f = random_spectral(6, rng)
        target = from_coeff_dict(6, {(1, 0): 1.0, (3, 0): -0.4})
        d, _ = dist_polar_orbit(f, target)
        assert d == pytest.approx(lp_distance(f, target, 2.0), rel=1e-12)

    @pytest.mark.parametrize("L, p_values, offset", [
        (4, (1.5, 2.0, 3.0, 6.0), None),
        (21, (2.0,), 1e-2),  # criterion 8a's regime: within 1e-2 of the orbit
    ])
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_against_dense_sweep_oracle(self, L, p_values, offset, seed, data):
        p = data.draw(st.sampled_from(p_values))
        r = np.random.default_rng(seed)
        f = random_spectral(L, r)
        target = random_spectral(L, r)
        if offset is not None:
            member = rotate_polar(target, r.uniform(0.0, 2.0 * np.pi))
            f = SpectralField(L, member.coeffs + offset * f.coeffs / norm_l2(f))
        d, _ = dist_polar_orbit(f, target, p=p)
        dense = dense_polar_sweep(f, target, p)
        assert d <= dense + 1e-9
        assert d >= dense - 1e-3 * max(dense, 1e-6)

    @pytest.mark.parametrize("seed", range(60))
    def test_p2_against_the_oracles(self, seed):
        # L from 2 to 21; every third pair within 1e-3 ||target|| of the orbit
        r = np.random.default_rng(seed)
        L = 2 + seed % 20
        f, target = random_spectral(L, r), random_spectral(L, r)
        if seed % 3 == 0:
            member = rotate_polar(target, r.uniform(0.0, 2.0 * np.pi))
            f = SpectralField(L, member.coeffs + 1e-3 * norm_l2(target) * f.coeffs / norm_l2(f))
        d, beta = dist_polar_orbit(f, target)
        roundoff = ROUNDOFF * (norm_l2(f) + norm_l2(target))
        for oracle in (dense_polar_sweep(f, target, 2.0, zooms=6, basins=3, n_zoom=64),
                       sampled_polar_search(f, target)):
            assert d == pytest.approx(oracle, rel=1e-12, abs=0.0)
            assert d <= oracle + roundoff
        assert lp_distance(f, rotate_polar(target, beta), 2.0) == d

    @pytest.mark.parametrize("L", [90, 170])
    def test_p2_at_large_L_against_the_dense_sweep(self, L):
        # a 1% perturbation on degrees <= 6, as in criterion 8a; at L = 170
        # the polynomial has degree 340
        r = np.random.default_rng(L)
        target = random_spectral(L, r)
        pert = random_spectral(L, r, max_degree=6)
        f = SpectralField(L, rotate_polar(target, 0.7).coeffs
                          + 1e-2 * norm_l2(target) * pert.coeffs / norm_l2(pert))
        d, beta = dist_polar_orbit(f, target)
        dense = dense_polar_sweep(f, target, 2.0, zooms=6, n_zoom=64)
        assert d == pytest.approx(dense, rel=1e-12, abs=0.0)
        assert d <= dense + ROUNDOFF * (norm_l2(f) + norm_l2(target))
        assert beta == pytest.approx(0.7, abs=1e-3)

    @pytest.mark.parametrize("tiny", [1e-30, 1e-100, 1e-310])
    def test_p2_with_a_negligible_top_order(self, tiny):
        # top-order content far below roundoff must not become the leading
        # coefficient of the polynomial, where it would swamp the roots
        r = np.random.default_rng(15)
        L = 15
        target = random_spectral(L, r, max_degree=L - 2)
        f = SpectralField(L, rotate_polar(target, 1.0).coeffs + 1e-3 * random_spectral(L, r).coeffs)
        C = target.coeffs.copy()
        C[L - 1 :, L] = tiny
        target = SpectralField(L, C)
        d, _ = dist_polar_orbit(f, target)
        assert d == pytest.approx(sampled_polar_search(f, target), rel=1e-12, abs=0.0)

    def test_p2_takes_the_roots_and_samples_nothing(self, rng, monkeypatch):
        irfft = []
        inner = np.fft.irfft

        def counting_irfft(*args, **kwargs):
            irfft.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counting_irfft)
        derivatives = counting(monkeypatch, "_correlation_derivatives")
        samples = counting(monkeypatch, "_correlation_samples")
        f, target = random_spectral(8, rng), random_spectral(8, rng)
        dist_polar_orbit(f, target)
        dist_polar_orbit(f, target, include_reflection=True)
        assert irfft == derivatives == samples == []

    def test_rejects_mismatched_truncation(self, rng):
        with pytest.raises(ValueError, match="truncation"):
            dist_polar_orbit(random_spectral(4, rng), random_spectral(5, rng))

    def test_reflection_family(self, rng):
        target = random_spectral(6, rng)
        f = rotate_polar(reflect_longitude(target), 0.7)
        d_plain, _ = dist_polar_orbit(f, target)
        d_refl, _ = dist_polar_orbit(f, target, include_reflection=True)
        assert d_refl < 1e-9
        assert d_plain > 1e-3  # generic field is not reflection-symmetric

    def test_general_p_exact_member(self, rng):
        target = random_spectral(5, rng)
        f = rotate_polar(target, 2.1)
        d, beta = dist_polar_orbit(f, target, p=3.0)
        assert d < 1e-7
        assert beta == pytest.approx(2.1, abs=1e-5)


class TestSO3Orbit:
    def test_exact_member(self):
        r = np.random.default_rng(7)
        target = random_spectral(5, r)
        f = rotate_so3(target, (0.9, 0.6, -1.1))
        d, euler = dist_so3_orbit(f, target)
        assert d < 1e-7
        # the returned angles reproduce the distance
        assert lp_distance(f, rotate_so3(target, euler), 2.0) == pytest.approx(d, abs=1e-12)

    def test_upper_bounds_polar_distance(self):
        r = np.random.default_rng(13)
        f = random_spectral(5, r)
        target = random_spectral(5, r)
        d_so3, _ = dist_so3_orbit(f, target)
        d_pol, _ = dist_polar_orbit(f, target)
        assert d_so3 <= d_pol + 1e-9
        assert d_pol <= lp_distance(f, target, 2.0) + 1e-12

    def test_small_perturbation(self):
        r = np.random.default_rng(3)
        target = random_spectral(5, r)
        pert = random_spectral(5, np.random.default_rng(4))
        pert = SpectralField(5, 1e-3 * pert.coeffs / norm_l2(pert))
        f = SpectralField(5, rotate_so3(target, (0.4, 0.8, 0.2)).coeffs + pert.coeffs)
        d, _ = dist_so3_orbit(f, target)
        assert d <= 1e-3 + 1e-9

    def test_zonal_degree_two_target_exact_member(self):
        # a zonal degree-2 part has a repeated quadratic-form eigenvalue,
        # so no eigenframe singles out the rotation; the spectral
        # correlation over all of SO(3) still finds the orbit member
        L = 4
        target = SpectralField(
            L,
            e2_to_spectral(E2Coeffs(0.5, 0.0, 0.0, 0.0, 0.0), L).coeffs
            + from_coeff_dict(L, {(3, 1): 0.4}).coeffs,
        )
        f = rotate_so3(target, (0.0, 1.0, 0.0))
        d, _ = dist_so3_orbit(f, target)
        assert d < 1e-4


def e2_of_matrix(M):
    """E2Coeffs of the traceless symmetric M: the inverse of E2Coeffs.matrix."""
    return E2Coeffs(M[2, 2] / 2.0, M[0, 2], M[1, 2], (M[0, 0] - M[1, 1]) / 2.0, M[0, 1])


def degree2_target(L, r, kind):
    """A target in degrees 0 and 2 only; c_0^0 != 0 unless it is zonal."""
    if kind == "zonal":  # eigenvalues (-a, -a, 2a): a repeated one
        return e2_to_spectral(E2Coeffs(r.normal(), 0.0, 0.0, 0.0, 0.0), L)
    if kind == "zero eigenvalue":  # eigenvalues (lam, 0, -lam), in a random frame
        Q, _ = np.linalg.qr(r.normal(size=(3, 3)))
        y = e2_of_matrix(Q @ np.diag([1.0, 0.0, -1.0]) @ Q.T * r.uniform(0.5, 2.0))
    else:
        y = E2Coeffs(*r.normal(size=5))
    return SpectralField(L, e2_to_spectral(y, L).coeffs + from_coeff_dict(L, {(0, 0): r.normal()}).coeffs)


def counting(monkeypatch, name):
    """Replace orbit_metrics.<name> by a wrapper that counts its calls."""
    calls = []
    inner = getattr(orbit_metrics, name)

    def wrapper(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(orbit_metrics, name, wrapper)
    return calls


class TestSO3DegreeTwoClosedForm:
    @pytest.mark.parametrize("L", [2, 5, 12])
    @pytest.mark.parametrize("kind", ["generic", "within 1e-2", "within 1e-3",
                                      "f without degree 2", "zonal", "zero eigenvalue"])
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_the_search(self, L, kind, seed, monkeypatch):
        r = np.random.default_rng([L, seed, len(kind)])
        target = degree2_target(L, r, "generic" if kind.startswith(("within", "f ")) else kind)
        f = random_spectral(L, r, zero_mean=False)
        if kind.startswith("within"):  # within eps ||target|| of the orbit
            eps = float(kind.split()[1])
            member = rotate_so3(target, r.uniform(0.0, 2.0 * np.pi, 3))
            f = SpectralField(L, member.coeffs + eps * norm_l2(target) * f.coeffs / norm_l2(f))
        elif kind == "f without degree 2":
            C = f.coeffs
            C[:, 2] = 0.0
            f = SpectralField(L, C)
        samples = counting(monkeypatch, "_correlation_samples")
        d, euler = dist_so3_orbit(f, target)
        assert samples == []
        searched, _ = _orbit_search(f, target, 2.0, _so3_starts(f, target), np.eye(3))
        assert d == pytest.approx(searched, rel=1e-12, abs=0.0)
        assert d <= searched + ROUNDOFF * (norm_l2(f) + norm_l2(target))
        assert lp_distance(f, rotate_wigner(target, euler), 2.0) == d

    @pytest.mark.parametrize("euler", [(0.3, 0.0, 0.5), (0.3, 1e-9, 0.5), (0.2, np.pi, 0.4)])
    def test_exact_member_at_gimbal_lock(self, euler):
        target = degree2_target(5, np.random.default_rng(7), "generic")
        f = rotate_so3(target, euler)
        d, found = dist_so3_orbit(f, target)
        assert d < 1e-12
        assert lp_distance(f, rotate_so3(target, found), 2.0) == pytest.approx(d, abs=1e-12)

    @pytest.mark.parametrize("stray", [(1, 1), (3, 2)])
    def test_a_tiny_coefficient_in_another_degree_runs_the_search(self, stray, monkeypatch):
        r = np.random.default_rng(5)
        target = SpectralField(4, degree2_target(4, r, "generic").coeffs
                               + from_coeff_dict(4, {stray: 1e-14}).coeffs)
        f = random_spectral(4, r)
        samples = counting(monkeypatch, "_correlation_samples")
        dist_so3_orbit(f, target)
        assert len(samples) == 1

    def test_p3_runs_the_search(self, monkeypatch):
        r = np.random.default_rng(6)
        target = degree2_target(3, r, "generic")
        samples = counting(monkeypatch, "_correlation_samples")
        d, euler = dist_so3_orbit(rotate_so3(target, (0.4, 1.1, -0.3)), target, p=3.0)
        assert len(samples) == 1
        assert d < 1e-7

    def test_rejects_mismatched_truncation(self, rng):
        with pytest.raises(ValueError, match="truncation"):
            dist_so3_orbit(random_spectral(4, rng), degree2_target(5, rng, "generic"))


class TestSO3GlobalSearch:
    @pytest.mark.parametrize("euler", [(0.3, 0.0, 0.5), (0.3, 1e-9, 0.5), (0.2, np.pi, 0.4)])
    def test_exact_member_at_gimbal_lock(self, euler):
        target = random_spectral(5, np.random.default_rng(7))
        f = rotate_so3(target, euler)
        d, _ = dist_so3_orbit(f, target)
        assert d < 1e-12

    @pytest.mark.parametrize("seed, nelder_mead", [(27, 8.056229679504996),
                                                   (17, 9.703408636788163)])
    def test_generic_pair_is_below_every_sampled_rotation(self, seed, nelder_mead):
        # nelder_mead: what eigenframe seeding + Nelder-Mead returned for the
        # same pair, a local minimum
        r = np.random.default_rng(seed)
        f = random_spectral(5, r)
        target = random_spectral(5, r)
        d, euler = dist_so3_orbit(f, target)
        assert lp_distance(f, rotate_so3(target, euler), 2.0) == pytest.approx(d, abs=1e-12)
        # Haar-random rotations, measured by grid resampling
        r = np.random.default_rng(100 + seed)
        angles = zip(r.uniform(0.0, 2.0 * np.pi, 2000), np.arccos(r.uniform(-1.0, 1.0, 2000)),
                     r.uniform(0.0, 2.0 * np.pi, 2000))
        sampled = min(lp_distance(f, rotate_so3(target, e), 2.0) for e in angles)
        assert d <= sampled + 1e-9
        assert d < nelder_mead - 0.1

    @pytest.mark.parametrize("seed", [18, 30])
    def test_generic_pair_at_p3_is_below_every_sampled_rotation(self, seed):
        # pairs whose L^3 minimum lies outside the basin of the p = 2 optimum
        r = np.random.default_rng(seed)
        f = random_spectral(4, r)
        target = random_spectral(4, r)
        d, euler = dist_so3_orbit(f, target, p=3.0)
        assert lp_distance(f, rotate_so3(target, euler), 3.0) == pytest.approx(d, rel=1e-12)
        r = np.random.default_rng(100 + seed)
        angles = zip(r.uniform(0.0, 2.0 * np.pi, 2000), np.arccos(r.uniform(-1.0, 1.0, 2000)),
                     r.uniform(0.0, 2.0 * np.pi, 2000))
        sampled = min(lp_distance(f, rotate_so3(target, e), 3.0) for e in angles)
        assert d <= sampled + 1e-9

    def test_general_p_exact_member(self):
        target = random_spectral(5, np.random.default_rng(9))
        f = rotate_so3(target, (1.3, 0.4, -0.6))
        d, euler = dist_so3_orbit(f, target, p=3.0)
        assert d < 1e-7
        assert lp_distance(f, rotate_so3(target, euler), 3.0) == pytest.approx(d, abs=1e-12)


class TestCorrelationOverflow:
    @pytest.mark.parametrize("dist", [dist_polar_orbit, dist_so3_orbit], ids=["polar", "so3"])
    def test_overflowed_correlation_raises_floating_point_error(self, dist):
        # at 1e200 ||f|| itself overflows; the search used to end in
        # "min() arg is an empty sequence"
        r = np.random.default_rng(0)
        f, target = random_spectral(6, r), random_spectral(6, r)
        d, angles = dist(f, target)
        big = SpectralField(6, 1e150 * f.coeffs), SpectralField(6, 1e150 * target.coeffs)
        d_big, angles_big = dist(*big)
        assert d_big == pytest.approx(1e150 * d, rel=1e-14)
        np.testing.assert_allclose(angles_big, angles, rtol=0.0, atol=1e-13)
        huge = SpectralField(6, 1e200 * f.coeffs), SpectralField(6, 1e200 * target.coeffs)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite orbit correlation"):
            dist(*huge)


class TestSO3SearchBudget:
    def test_degree_above_the_budget_is_rejected_before_any_sample(self):
        # J = 69 is the largest degree whose 48 n^3 bytes, n = 4(J+1), fit
        assert 48 * (4 * 70) ** 3 <= SO3_SEARCH_BYTES < 48 * (4 * 71) ** 3
        r = np.random.default_rng(8)
        f, target = random_spectral(70, r), random_spectral(70, r)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                dist_so3_orbit(f, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            "the SO(3) search at target degree J = 70 samples n^3 Euler angles, n = 4(J+1) = 284, "
            f"in about {48 * 284**3} bytes, above SO3_SEARCH_BYTES = {SO3_SEARCH_BYTES}")
        assert peak < 4e6
