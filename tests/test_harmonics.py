import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhlab import grid
from rhlab.grid import MAX_L, build_grid, integrate
from rhlab.harmonics import (
    EVAL_POINTS,
    E2Coeffs,
    SpectralField,
    _Analysis,
    _Synthesis,
    _field,
    _legendre_quadrature,
    _synth_values,
    _work_views,
    analyze,
    default_grid,
    e2_part,
    e2_to_spectral,
    eval_point,
    from_coeff_dict,
    grid_tables,
    inner_l2,
    load_spectral,
    norm_l2,
    norm_legendre_table,
    save_spectral,
    spectral_to_e2,
    synthesize,
    synthesize_dphi,
    synthesize_dtheta,
    table_degree,
)
from rhlab.experiments import random_bandlimited
from rhlab.invariants_algebra import moments_numeric
from rhlab.operators import advection_tendency
from tests.conftest import random_spectral


def assoc_legendre_normalized(j, m, mu):
    if m > j:
        raise ValueError("m > j")
    return float(norm_legendre_table(j, np.atleast_1d(float(mu)))[m, j, 0])


class TestAssocLegendre:
    def test_degree_one_zonal(self):
        # Y_1^0 = sqrt(3/4pi) sin(theta)
        for mu in (-0.9, -0.3, 0.0, 0.5, 1.0):
            assert assoc_legendre_normalized(1, 0, mu) == pytest.approx(
                np.sqrt(3.0 / (4.0 * np.pi)) * mu, abs=1e-14)

    def test_degree_two_zonal_at_equator(self):
        # Y_2^0 = sqrt(5/16pi)(3 sin^2 theta - 1)
        assert assoc_legendre_normalized(2, 0, 0.0) == pytest.approx(
            -np.sqrt(5.0 / (16.0 * np.pi)), abs=1e-14)

    def test_rejects_order_above_degree(self):
        with pytest.raises(Exception):
            assoc_legendre_normalized(2, 3, 0.0)

    @pytest.mark.parametrize("j,m", [(1, 0), (2, 1), (5, 3), (12, 12), (20, 7)])
    def test_orthonormality(self, j, m):
        L = 21
        spec = build_grid(L)
        c = from_coeff_dict(L, {(j, m): 1.0})
        g = synthesize(c, spec)
        # the stored +m and reconstructed -m harmonic each carry unit norm
        expected = 1.0 if m == 0 else 2.0
        assert integrate(g**2, spec) == pytest.approx(expected, abs=1e-12)

    def test_cross_orthogonality(self):
        L = 10
        spec = build_grid(L)
        g1 = synthesize(from_coeff_dict(L, {(3, 2): 1.0}), spec)
        g2 = synthesize(from_coeff_dict(L, {(5, 2): 1.0}), spec)
        assert abs(integrate(g1 * g2, spec)) < 1e-12


def per_order_legendre_table(L, mu):
    """The recurrence run one order m at a time: the reference loop."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    n = mu.size
    s = np.sqrt(np.clip(1.0 - mu ** 2, 0.0, None))
    P = np.zeros((L + 1, L + 1, n))
    P[0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    for m in range(1, L + 1):
        P[m, m] = -np.sqrt((2 * m + 1) / (2.0 * m)) * s * P[m - 1, m - 1]
    for m in range(0, L + 1):
        eps_prev = 0.0
        prev2 = np.zeros(n)
        prev1 = P[m, m]
        for j in range(m + 1, L + 1):
            eps = np.sqrt((j * j - m * m) / (4.0 * j * j - 1.0))
            cur = (mu * prev1 - eps_prev * prev2) / eps
            P[m, j] = cur
            prev2, prev1, eps_prev = prev1, cur, eps
    return P


class TestLegendreRecurrence:
    @pytest.mark.parametrize("L", [0, 1, 2, 7, 30, 91])
    def test_all_orders_at_once_equal_the_per_order_loop(self, L):
        # same arithmetic in the same order, so the bits must agree
        mu = np.concatenate([[-1.0, -0.999, 0.0, 0.3, 1.0], build_grid(max(L, 2)).mu_nodes])
        assert np.array_equal(norm_legendre_table(L, mu), per_order_legendre_table(L, mu))


class TestLegendreOracle:
    """The table against scipy at the largest shipped L, and every slot of
    the folded grid table against a full-node table."""

    @pytest.fixture(scope="class")
    def largest(self):
        sph_harm_y = getattr(pytest.importorskip("scipy.special"), "sph_harm_y", None)
        if sph_harm_y is None:
            pytest.skip("scipy.special.sph_harm_y needs scipy >= 1.15")

        # the table of the largest supported L has degree 171
        assert table_degree(MAX_L) == 171
        spec = build_grid(MAX_L)
        mu = spec.mu_nodes[spec.n_lat // 2:]
        P = norm_legendre_table(171, mu)
        m, j = np.triu_indices(172)
        # phi = 0 makes Y real; scipy's polar angle is the colatitude
        want = sph_harm_y(j[:, None], m[:, None], np.arccos(mu)[None, :], 0.0).real
        return mu, P, m, j, want

    def test_matches_scipy_at_the_northern_nodes_of_L170(self, largest):
        mu, P, m, j, want = largest
        err = np.abs(P[m, j] - want).max(axis=0)
        # measured 8.3e-13 at the node nearest the pole, 6.2e-14 elsewhere
        assert err.max() < 2e-12
        assert err[mu < 0.99].max() < 2e-13

    def test_near_pole_seed_underflows_harmlessly(self, largest):
        mu, P, m, j, want = largest
        # P_m^m ~ cos(theta)^m with cos(theta) = 0.0094 at the node nearest
        # the pole: subnormal from m = 152, exactly zero from m = 160, and
        # so is every P_j^m of those orders there
        seed = np.abs(P[np.arange(172), np.arange(172), -1])
        tiny = np.finfo(float).tiny
        assert np.all(seed[:152] >= tiny)
        assert np.all((seed[152:160] > 0.0) & (seed[152:160] < tiny))
        assert np.all(P[160:, :, -1] == 0.0)
        # what the zeros stand for is below 1e-300
        assert np.abs(want[m >= 160, -1]).max() < 1e-300

    @staticmethod
    def assert_folded(table, degree, P):
        """Every slot of the folded grid table against P[m, j] at the same nodes.

        Pair q holds order m = q from the bottom (slot i of parity p is
        degree m + 2i + p) and order degree - q from the top (slot h - i);
        used slots must equal P bitwise, the rest must be exactly zero.
        """
        h = (degree + 1) // 2
        assert table.shape == (h, 2, h + 1, P.shape[-1])
        used = np.zeros(table.shape[:3], dtype=bool)
        for q in range(h):
            for m, from_top in ((q, False), (degree - q, True)):
                for j in range(m, degree + 1):
                    i, p = divmod(j - m, 2)
                    slot = h - i if from_top else i
                    assert not used[q, p, slot]
                    used[q, p, slot] = True
                    assert np.array_equal(table[q, p, slot], P[m, j])
        # one odd slot per pair is left over
        assert used[:, 0].all() and np.all((~used[:, 1]).sum(axis=1) == 1)
        assert np.all(table[~used] == 0.0)

    @pytest.mark.parametrize("L, n_lat", [(12, None), (12, 20), (21, None), (21, 33)])
    def test_grid_table_mirrors_a_full_node_table(self, L, n_lat):
        spec = build_grid(L, n_lat=n_lat)
        table = grid_tables(spec)
        degree = table_degree(L)
        full = norm_legendre_table(degree, spec.mu_nodes)
        half = spec.n_lat // 2
        self.assert_folded(table, degree, full[:, :, half:])
        # P_j^m(-mu) = (-1)^(j-m) P_j^m(mu): bitwise, since the nodes are
        # exactly symmetric and the recurrence only flips signs
        parity = (-1.0) ** (np.arange(degree + 1)[None, :] - np.arange(degree + 1)[:, None])
        mirrored = parity[:, :, None] * full[:, :, half:][:, :, ::-1][:, :, :half]
        assert np.array_equal(mirrored, full[:, :, :half])

    def test_grid_table_of_L170_is_folded(self, largest):
        mu, P = largest[:2]
        spec = build_grid(170)
        assert np.array_equal(spec.mu_nodes[spec.n_lat // 2:], mu)
        table = grid_tables(spec)
        self.assert_folded(table, 171, P)
        # only the nonzero P_j^m are stored: 86 pairs x 2 parities x 87 slots
        assert table.nbytes == 86 * 2 * 87 * 128 * 8 <= 16e6

    def test_table_build_keeps_no_dense_temporary(self):
        grid._shared_grid.cache_clear()
        spec = build_grid(90)
        tracemalloc.start()
        try:
            table = grid_tables(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense table at the northern nodes is twice the folded one
        assert peak <= 1.5 * table.nbytes


class TestSlotMap:
    """The two encodings of the folded layout agree: the grid's slot map,
    through which the table is built and analysis gathers, and the left
    side's strided views `first` and `second` of `_Synthesis`."""

    @pytest.mark.parametrize("nf, kinds", [(1, ("value",)), (2, ("dphi", "dtheta"))])
    @pytest.mark.parametrize("L", [2, 3, 21, 22, 90])
    def test_left_side_views_read_the_slots_of_the_map(self, L, nf, kinds):
        spec = build_grid(L)
        views = _work_views(spec, (nf, kinds), _Synthesis)
        slots = vars(spec)["_work"].slots
        h, n_slots = views.table.shape[0], views.table.shape[2]
        R = 2 * nf * len(kinds)
        # each cell of the rows buffer [row, m, j] holds its own flat index
        rows_shape = (R, 2 * h + 1, 2 * h + 1)
        views.buffer[:] = np.arange(views.buffer.size)
        for lhs, block in views.blocks:
            lhs[...] = block
        lhs = views.lhs.reshape(h, 2, 2, R, n_slots)
        r, m, j = np.unravel_index(lhs.astype(np.intp), rows_shape)
        pair, parity, order, row, slot = np.indices(lhs.shape)
        # the cells that `_legendre_sums` leaves zero whatever the input
        live = (m <= L) & (m <= j) & (j <= L + 1)
        assert np.array_equal(r[live], row[live])
        at = 2 * np.ravel_multi_index((pair, parity, slot), views.table.shape[:3]) + order
        assert np.array_equal(slots[m[live], j[live]], at[live])
        # and every live cell is read, each into a cell of its own
        per_row = (np.arange(L + 1)[:, None] <= np.arange(L + 2)).sum()
        assert live.sum() == R * per_row


class TestTransformPair:
    def test_analyze_recovers_single_harmonic(self, rng):
        L = 8
        spec = build_grid(L)
        g = synthesize(from_coeff_dict(L, {(2, 0): 1.0}), spec)
        c = analyze(g, spec)
        assert c.coeffs[0, 2] == pytest.approx(1.0, abs=1e-12)
        other = c.coeffs.copy()
        other[0, 2] = 0.0
        assert np.abs(other).max() < 1e-12

    def test_constant_field_mean_coefficient(self):
        L = 4
        spec = build_grid(L)
        c = analyze(np.ones((spec.n_lat, spec.n_lon)), spec)
        assert c.coeffs[0, 0] == pytest.approx(np.sqrt(4.0 * np.pi), rel=1e-13)

    @given(seed=st.integers(0, 2**32 - 1), L=st.integers(3, 42))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip(self, seed, L):
        spec = build_grid(L)
        f = random_spectral(L, np.random.default_rng(seed), zero_mean=False)
        f2 = analyze(synthesize(f, spec), spec)
        assert np.abs(f2.coeffs - f.coeffs).max() < 1e-12 * max(
            1.0, np.abs(f.coeffs).max())

    # measured: 4.4e-14 of the largest coefficient (1.0e-12 with numpy's
    # eigenvalue rule, whose weights are off by up to 2.1e-11 at 256 nodes)
    def test_roundtrip_at_the_largest_L(self, rng):
        spec = build_grid(MAX_L)
        f = random_spectral(MAX_L, rng, zero_mean=False)
        f2 = analyze(synthesize(f, spec), spec)
        assert np.abs(f2.coeffs - f.coeffs).max() < 1.3e-13 * np.abs(f.coeffs).max()

    @pytest.mark.parametrize("call", [analyze, integrate],
                             ids=["analyze", "integrate"])
    @pytest.mark.parametrize("shape", [(15, 7), (7, 14), (7 * 15,), (1, 7, 15)])
    def test_wrong_shape_rejected(self, call, shape):
        spec = build_grid(4)  # 7 x 15 nodes
        with pytest.raises(ValueError, match=re.escape(f"{shape} does not match grid (7, 15)")):
            call(np.zeros(shape), spec)

    def test_parseval(self, rng):
        L = 16
        spec = build_grid(L)
        f = random_spectral(L, rng, zero_mean=False)
        g = synthesize(f, spec)
        quad = integrate(g**2, spec)
        spectral = inner_l2(f, f)
        assert quad == pytest.approx(spectral, rel=1e-11)

    def test_synthesize_linearity(self, rng):
        L = 6
        spec = build_grid(L)
        f = random_spectral(L, rng)
        g = random_spectral(L, rng)
        lhs = synthesize(SpectralField(L, 2.5 * f.coeffs + g.coeffs), spec)
        rhs = 2.5 * synthesize(f, spec) + synthesize(g, spec)
        assert np.abs(lhs - rhs).max() < 1e-13 * max(1.0, np.abs(rhs).max())

    def test_zero_coefficients_give_zero_field(self):
        L = 5
        spec = build_grid(L)
        g = synthesize(from_coeff_dict(L, {}), spec)
        assert np.abs(g).max() == 0.0

    @pytest.mark.parametrize("call", [
        synthesize,
        synthesize_dphi,
        synthesize_dtheta,
        lambda f, spec: advection_tendency(f, 0.5, spec),
    ], ids=["synthesize", "dphi", "dtheta", "advection"])
    @pytest.mark.parametrize("L", [4, 8])
    def test_field_of_another_degree_rejected(self, call, L, rng):
        # a grid transforms fields of its own degree only
        spec = build_grid(6)
        call(random_spectral(6, rng), spec)
        with pytest.raises(ValueError) as err:
            call(random_spectral(L, rng), spec)
        assert str(err.value) == f"field truncation {L} differs from grid truncation 6"


class TestLegendreContraction:
    """The analysis kernel in the folded layout against a direct complex einsum.

    The oracle table is a full-node `norm_legendre_table` of the grid's
    degree L; analysis weights the Fourier coefficients.
    """

    # even and odd L (table degree L + 1 or L + 2), even and odd n_lat
    # (L = 91 has an equator node)
    @pytest.mark.parametrize("L", [2, 89, 90, 91])
    def test_quadrature_in_stored_layout_matches_complex_einsum(self, rng, L):
        spec = default_grid(L)
        P = norm_legendre_table(spec.L, spec.mu_nodes)
        shape = (spec.n_lat, spec.L + 1)
        F = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * spec.weights[:, None]
        want = np.einsum("mjk,km->mj", P, F)
        # the sums and differences of the rows at +-mu; an equator row
        # enters both once
        half, eq = spec.n_lat // 2, spec.n_lat % 2
        north, south = F[half + eq :], F[half - 1 :: -1]
        equator = F[half : half + eq]
        pair = np.stack((np.concatenate((equator, north + south)),
                         np.concatenate((equator, north - south))))
        views = _work_views(spec, "analysis", _Analysis)
        got = _legendre_quadrature(pair, views)
        assert got.shape == (spec.L + 1, spec.L + 1)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # the slots j < m are exactly zero
        assert np.all(got[np.tril_indices(spec.L + 1, -1)] == 0.0)

    def test_shared_tables_are_read_only(self):
        table = grid_tables(build_grid(5))
        for view in (table, table[:2, :1]):
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0, 0] = 1.0


class TestDthetaSynthesis:
    """d/dtheta synthesis from the one table, against oracles of its own."""

    def test_y10_closed_form(self):
        # Y_1^0 = sqrt(3 / 4pi) sin(theta)
        spec = build_grid(5)
        got = synthesize_dtheta(from_coeff_dict(5, {(1, 0): 1.0}), spec)
        want = np.sqrt(3.0 / (4.0 * np.pi)) * spec.cos_theta[:, None] * np.ones(spec.n_lon)
        assert np.abs(got - want).max() < 1e-13

    def test_y21_closed_form(self):
        # 2 Re(c Y_2^1) = -sqrt(15 / 8pi) sin(2 theta) Re(c e^{i phi})
        c = 0.3 - 0.7j
        spec = build_grid(6)
        got = synthesize_dtheta(from_coeff_dict(6, {(2, 1): c}), spec)
        theta = np.arcsin(spec.mu_nodes)[:, None]
        want = (-2.0 * np.sqrt(15.0 / (8.0 * np.pi)) * np.cos(2.0 * theta)
                * np.real(c * np.exp(1j * spec.phi))[None, :])
        assert np.abs(got - want).max() < 1e-13

    @pytest.mark.parametrize("L, h", [(21, 2e-4), (170, 3e-5)])
    def test_matches_centred_difference_of_eval_point(self, L, h):
        spec = build_grid(L)
        rng = np.random.default_rng(L)
        f = random_spectral(L, rng)
        # the two nodes nearest each pole, the equator side, and random nodes
        k = np.r_[0, 1, spec.n_lat - 2, spec.n_lat - 1, spec.n_lat // 2,
                  rng.integers(0, spec.n_lat, 20)]
        n = rng.integers(0, spec.n_lon, k.size)
        theta, phi = np.arcsin(spec.mu_nodes[k]), spec.phi[n]
        fd = (eval_point(f, phi, theta - 2 * h) - 8 * eval_point(f, phi, theta - h)
              + 8 * eval_point(f, phi, theta + h) - eval_point(f, phi, theta + 2 * h)) / (12 * h)
        got = synthesize_dtheta(f, spec)[k, n]
        assert np.abs(got - fd).max() < 1e-9 * np.abs(got).max()

    @pytest.mark.parametrize("L", [5, 42])
    def test_fused_gradients_equal_per_field_wrappers(self, L):
        # the contraction of advection_tendency against its oracle pair
        spec = build_grid(L)
        rng = np.random.default_rng(7)
        psi, zeta = random_spectral(L, rng), random_spectral(L, rng)
        grids = _synth_values((psi.coeffs, zeta.coeffs), spec, ("dphi", "dtheta")).copy()
        assert grids.shape == (2, 2, spec.n_lat, spec.n_lon)
        for i, f in enumerate((psi, zeta)):
            for got, want in ((grids[0, i], synthesize_dphi(f, spec)),
                              (grids[1, i], synthesize_dtheta(f, spec))):
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestWorkRegions:
    """Transforms run in two work regions kept per grid; nothing a caller keeps may alias them."""

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a).tobytes()

    def test_public_results_survive_later_transforms(self, rng):
        spec = build_grid(21)
        psi, zeta = random_spectral(21, rng), random_spectral(21, rng)
        grads = synthesize_dphi(psi, spec), synthesize_dtheta(zeta, spec)
        values = synthesize(zeta, spec)
        kept = [self.bits(g) for g in grads], self.bits(values)
        synthesize_dtheta(psi, spec)
        synthesize_dphi(zeta, spec)
        analyze(values * 2.0, spec)
        advection_tendency(zeta, 0.5, spec)
        assert ([self.bits(g) for g in grads], self.bits(values)) == kept

    @pytest.mark.parametrize("L", [12, 21])
    def test_tendency_repeats_bitwise_between_other_transforms(self, L, rng):
        spec, other = build_grid(L), build_grid(L, n_lat=2 * L)
        z1, z2 = random_spectral(L, rng), random_spectral(L, rng)
        first = self.bits(advection_tendency(z1, 0.5, spec).coeffs)
        advection_tendency(z2, 0.5, spec)
        assert self.bits(advection_tendency(z1, 0.5, spec).coeffs) == first
        synthesize(z2, other)
        synthesize_dphi(z2, spec)
        assert self.bits(advection_tendency(z1, 0.5, spec).coeffs) == first

    @pytest.mark.parametrize("L", [12, 21])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_leaves_no_trace(self, L, bad, rng):
        spec = build_grid(L)
        good = random_spectral(L, rng)
        C = random_spectral(L, rng).coeffs
        C[3, 5] = bad
        # a public SpectralField rejects it, so it enters as an internal result would
        with np.errstate(invalid="ignore", over="ignore"):
            assert not np.isfinite(advection_tendency(_field(L, C), 0.5, spec).coeffs).all()
            synthesize(_field(L, C), spec)
        after = self.bits(advection_tendency(good, 0.5, spec).coeffs), self.bits(
            synthesize(good, spec))
        grid._shared_grid.cache_clear()
        spec = build_grid(L)
        fresh = self.bits(advection_tendency(good, 0.5, spec).coeffs), self.bits(
            synthesize(good, spec))
        assert after == fresh

    def test_regions_are_kept_in_the_table_cache_entry(self, rng):
        grid._shared_grid.cache_clear()
        spec = build_grid(21)
        advection_tendency(random_spectral(21, rng), 0.5, spec)
        work = vars(spec)["_work"]
        a, b = work.a, work.b
        advection_tendency(random_spectral(21, rng), 0.5, spec)
        assert work.a is a and work.b is b and work.table is grid_tables(spec)


class TestRealM0Check:
    """An imaginary m = 0 part is judged against the coefficient scale when the field is built."""

    PATHS = {
        "synthesize": synthesize,
        "dphi": synthesize_dphi,
        "dtheta": synthesize_dtheta,
        "gradients": lambda f, spec: _synth_values([f.coeffs], spec, ("dphi", "dtheta")).copy(),
        "advection": lambda f, spec: advection_tendency(f, 0.5, spec).coeffs,
        "eval_point": lambda f, spec: eval_point(f, 0.3, 0.4),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_tiny_imaginary_m0_is_rejected(self, path):
        with pytest.raises(ValueError, match="imaginary residue"):
            self.PATHS[path](from_coeff_dict(3, {(2, 0): 1e-13j}), build_grid(3))

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_huge_field_with_relative_dust_is_accepted(self, path, rng):
        real = SpectralField(21, 1e6 * random_spectral(21, rng).coeffs)
        C = real.coeffs.copy()
        C[0, 2] += 1e-17j * np.abs(C).max()
        spec = build_grid(21)
        got = self.PATHS[path](SpectralField(21, C), spec)
        want = self.PATHS[path](real, spec)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("call", [lambda f: synthesize(f, build_grid(3)),
                                      lambda f: moments_numeric(f, 7)],
                             ids=["synthesize", "moments_numeric"])
    def test_nan_imaginary_m0_is_rejected(self, call):
        # a bare `imag > tol * scale` is False for NaN, and synthesis
        # would then drop the imaginary part without a trace
        with pytest.raises(ValueError, match="imaginary residue"):
            call(from_coeff_dict(3, {(2, 0): complex(1.0, np.nan)}))


class TestFieldValidity:
    """A public constructor rejects coefficients that break a `SpectralField` invariant."""

    DEFECTS = {
        "structural zero": r"\(j, m\) = \(",
        "non-finite": "finite",
        "imaginary m = 0": "imaginary (residue|part)",
    }

    @staticmethod
    def build(constructor, L, C, path):
        if constructor == "SpectralField":
            return SpectralField(L, C)
        entries = {(j, m): C[m, j] for m, j in zip(*np.nonzero(C))}
        if constructor == "from_coeff_dict":
            return from_coeff_dict(L, entries)
        path.write_text(f"L {L}\n" + "".join(f"{j} {m} {v.real:.17g} {v.imag:.17g}\n"
                                              for (j, m), v in entries.items()))
        return load_spectral(path)

    @given(L=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-200, 1e-8, 1.0, 1e8, 1e200]),
           defect=st.sampled_from(sorted(DEFECTS)),
           constructor=st.sampled_from(["SpectralField", "from_coeff_dict", "load_spectral"]),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_each_defect_is_rejected(self, L, seed, scale, defect, constructor, data,
                                     tmp_path_factory):
        C = scale * random_spectral(L, np.random.default_rng(seed), zero_mean=False).coeffs
        match = self.DEFECTS[defect]
        if defect == "structural zero":
            j = data.draw(st.integers(0, L - 1))
            m = data.draw(st.integers(j + 1, L))
            C[m, j] = data.draw(st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300,
                                                   allow_nan=False, allow_infinity=False))
            match += rf"{j}, {m}\)"
        elif defect == "non-finite":
            j = data.draw(st.integers(0, L))
            m = data.draw(st.integers(0, j))
            bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            imag = data.draw(st.booleans())
            C[m, j] = complex(C[m, j].real, bad) if imag else complex(bad, C[m, j].imag)
            if m == 0 and imag and constructor != "load_spectral":
                # reported as the imaginary part synthesis would drop
                match = "imaginary residue"
        else:
            factor = data.draw(st.floats(1e-11, 1e6))
            C[0, data.draw(st.integers(0, L))] += 1j * factor * np.abs(C).max()
        path = tmp_path_factory.mktemp("spectral") / "field.txt"
        with pytest.raises(ValueError, match=match):
            self.build(constructor, L, C, path)

    def test_wrong_triangle_slot_is_rejected(self):
        # synthesis never reads C[3, 1], so the grid of this field
        # integrates to 0 while Parseval would give norm_l2 = sqrt(2)
        C = np.zeros((4, 4), dtype=complex)
        C[3, 1] = 1.0
        with pytest.raises(ValueError, match=r"structural-zero slot \(j, m\) = \(1, 3\)"):
            SpectralField(3, C)

    def test_later_writes_to_the_input_do_not_reach_the_field(self):
        # the field keeps a copy, so the check cannot be undone afterwards
        C = np.zeros((4, 4), dtype=complex)
        C[0, 2] = 1.0
        f = SpectralField(3, C)
        C[3, 1] = 1.0
        assert f.coeffs[3, 1] == 0.0
        assert norm_l2(f) == 1.0

    def test_real_array_is_stored_as_complex(self, rng):
        # synthesis reads coeffs as (real, imaginary) pairs, so a real
        # array would have its values read as imaginary parts too
        C = random_spectral(7, rng).coeffs.real.copy()
        spec = build_grid(7)
        want = synthesize(SpectralField(7, C.astype(complex)), spec)
        assert np.array_equal(synthesize(SpectralField(7, C), spec), want)

    @pytest.mark.parametrize("L, shape", [(3, (4, 5)), (3, (3, 3)), (-1, (0, 0))])
    def test_wrong_shape_is_rejected(self, L, shape):
        with pytest.raises(ValueError, match="shape"):
            SpectralField(L, np.zeros(shape, dtype=complex))

    def test_derived_constructors_reject_non_finite_input(self):
        with pytest.raises(ValueError, match="finite"):
            e2_to_spectral(E2Coeffs(np.nan, 0.0, 0.0, 0.0, 0.0), 4)
        with pytest.raises(ValueError, match="finite"):
            e2_to_spectral(E2Coeffs(0.0, 0.0, 0.0, np.inf, 0.0), 4)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            random_bandlimited(6, seed=0, max_degree=0)  # 0/0

    @given(L=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-200, 1.0, 1e200]), factor=st.floats(0.0, 1e-13))
    @settings(max_examples=40, deadline=None)
    def test_relative_dust_on_m0_is_accepted(self, L, seed, scale, factor):
        rng = np.random.default_rng(seed)
        C = scale * random_spectral(L, rng, zero_mean=False).coeffs
        C[0, rng.integers(L + 1)] += 1j * factor * np.abs(C).max()
        kept = SpectralField(L, C).coeffs
        assert kept is not C and kept.tobytes() == C.tobytes()
        entries = {(j, m): C[m, j] for m in range(L + 1) for j in range(m, L + 1)}
        assert np.array_equal(from_coeff_dict(L, entries).coeffs, C)

    @given(L=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_public_constructors_round_trip_bit_for_bit(self, L, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        C = random_spectral(L, rng, zero_mean=False).coeffs
        fields = [
            SpectralField(L, C),
            from_coeff_dict(L, {(j, m): C[m, j] for m in range(L + 1) for j in range(m, L + 1)}),
            random_bandlimited(L, seed, max_degree=int(rng.integers(1, L + 1))),
            e2_to_spectral(E2Coeffs(*rng.normal(size=5)), L),
        ]
        dusty = C.copy()
        dusty[0, rng.integers(L + 1)] += 1j * 1e-13 * np.abs(C).max()
        fields.append(SpectralField(L, dusty))
        path = tmp_path_factory.mktemp("spectral") / "field.txt"
        for f in fields:
            save_spectral(f, path)
            g = load_spectral(path)
            save_spectral(g, path)
            assert g.L == f.L and g.coeffs.tobytes() == f.coeffs.tobytes()
            assert load_spectral(path).coeffs.tobytes() == f.coeffs.tobytes()


class TestEvalPoint:
    def test_pole_value(self):
        c = from_coeff_dict(4, {(2, 0): 1.0})
        # sqrt(5/16pi) * (3 - 1) at the north pole
        assert eval_point(c, 0.0, np.pi / 2) == pytest.approx(
            np.sqrt(5.0 / (4.0 * np.pi)), abs=1e-13)

    @pytest.mark.parametrize("L", [9, 90, MAX_L])
    def test_matches_grid_synthesis(self, L, rng):
        # at 40 sampled nodes: eval_point's table for every node of the
        # L=170 grid would take 30 GB
        spec = build_grid(L)
        f = random_spectral(L, rng)
        g = synthesize(f, spec)
        k, n = rng.integers(spec.n_lat, size=40), rng.integers(spec.n_lon, size=40)
        got = eval_point(f, spec.phi[n], np.arcsin(spec.mu_nodes[k]))
        assert np.abs(got - g[k, n]).max() < 1e-13 * np.abs(g).max()

    def test_more_points_than_one_block_match_grid_synthesis(self, rng):
        spec = build_grid(9)
        f = random_spectral(9, rng)
        g = synthesize(f, spec)
        k = rng.integers(spec.n_lat, size=EVAL_POINTS + 1)
        n = rng.integers(spec.n_lon, size=EVAL_POINTS + 1)
        got = eval_point(f, spec.phi[n], np.arcsin(spec.mu_nodes[k]))
        assert got.shape == (EVAL_POINTS + 1,)
        assert np.abs(got - g[k, n]).max() < 1e-13 * np.abs(g).max()

    def test_shapes(self, rng):
        f = random_spectral(5, rng)
        assert isinstance(eval_point(f, 0.3, 0.4), float)
        assert eval_point(f, np.array(0.3), np.array(0.4)).shape == (1,)
        assert eval_point(f, np.zeros((2, 3)), 0.4).shape == (2, 3)
        assert eval_point(f, np.zeros(0), np.zeros(0)).shape == (0,)

    def test_periodic_in_longitude(self, rng):
        f = random_spectral(7, rng)
        v1 = eval_point(f, 0.3, 0.4)
        v2 = eval_point(f, 0.3 + 2.0 * np.pi, 0.4)
        assert abs(v1 - v2) < 1e-13


class TestE2Basis:
    def test_roundtrip_first_basis_vector(self):
        y = E2Coeffs(1.0, 0.0, 0.0, 0.0, 0.0)
        back = spectral_to_e2(e2_to_spectral(y))
        assert back.as_tuple() == pytest.approx(y.as_tuple(), abs=1e-14)

    def test_zonal_norm(self):
        # || 3 sin^2 theta - 1 ||^2 = 2 pi * int (3 mu^2 - 1)^2 dmu = 16 pi / 5
        c = e2_to_spectral(E2Coeffs(1.0, 0.0, 0.0, 0.0, 0.0))
        assert norm_l2(c) ** 2 == pytest.approx(16.0 * np.pi / 5.0, rel=1e-13)

    def test_grid_values_match_closed_form(self, rng):
        y = E2Coeffs(*rng.normal(size=5))
        L = 6
        spec = build_grid(L)
        g = synthesize(e2_to_spectral(y, L), spec)
        mu = spec.mu_nodes[:, None]
        ct = spec.cos_theta[:, None]
        ph = spec.phi[None, :]
        a, b, c, d, e = y.as_tuple()
        explicit = (a * (3 * mu**2 - 1) + b * 2 * mu * ct * np.cos(ph)
                    + c * 2 * mu * ct * np.sin(ph) + d * ct**2 * np.cos(2 * ph)
                    + e * ct**2 * np.sin(2 * ph))
        assert np.abs(g - explicit).max() < 1e-13

    def test_matrix_quadratic_form_is_the_field(self, rng):
        # x^T M x at the grid nodes' unit vectors is the synthesized field
        y = E2Coeffs(*rng.normal(size=5))
        spec = build_grid(4)
        ct = spec.cos_theta[:, None]
        ph = spec.phi[None, :]
        x = np.stack(np.broadcast_arrays(ct * np.cos(ph), ct * np.sin(ph), spec.mu_nodes[:, None]))
        form = np.einsum("akn,ab,bkn->kn", x, y.matrix(), x)
        assert np.abs(form - synthesize(e2_to_spectral(y, 4), spec)).max() < 1e-13

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_inner_product_is_the_matrix_trace(self, seed):
        r = np.random.default_rng(seed)
        y1, y2 = E2Coeffs(*r.normal(size=5)), E2Coeffs(*r.normal(size=5))
        trace = 8.0 * np.pi / 15.0 * np.trace(y1.matrix() @ y2.matrix())
        inner = inner_l2(e2_to_spectral(y1, 5), e2_to_spectral(y2, 5))
        assert inner == pytest.approx(trace, rel=1e-13, abs=1e-13)

    def test_degree_two_part_ignores_other_degrees(self, rng):
        y = E2Coeffs(*rng.normal(size=5))
        rest = random_spectral(5, rng, zero_mean=False).coeffs
        rest[:, 2] = 0.0
        f = SpectralField(5, e2_to_spectral(y, 5).coeffs + rest)
        assert e2_part(f).as_tuple() == pytest.approx(y.as_tuple(), abs=1e-14)

    def test_half_turn_parity_of_single_phi_mode(self):
        c = e2_to_spectral(E2Coeffs(0.0, 1.0, 0.0, 0.0, 0.0))
        v1 = eval_point(c, 0.7, 0.3)
        v2 = eval_point(c, 0.7 + np.pi, 0.3)
        assert v1 == pytest.approx(-v2, abs=1e-13)

    def test_rejects_content_outside_degree_two(self, rng):
        f = random_spectral(5, rng)
        with pytest.raises(ValueError, match="degree 2"):
            spectral_to_e2(f)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_random(self, seed):
        r = np.random.default_rng(seed)
        y = E2Coeffs(*r.normal(size=5))
        back = spectral_to_e2(e2_to_spectral(y))
        assert back.as_tuple() == pytest.approx(y.as_tuple(), abs=1e-12)


class TestTextFormat:
    def test_roundtrip(self, rng, tmp_path):
        f = random_spectral(6, rng, zero_mean=False)
        path = tmp_path / "field.txt"
        save_spectral(f, path)
        g = load_spectral(path)
        assert g.L == f.L
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_header_format(self, rng, tmp_path):
        f = random_spectral(3, rng)
        path = tmp_path / "field.txt"
        save_spectral(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "L 3"
        parts = lines[1].split()
        assert len(parts) == 4 and parts[0] == "0" and parts[1] == "0"

    @given(L=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_is_exact(self, L, seed, tmp_path_factory):
        f = random_spectral(L, np.random.default_rng(seed), zero_mean=False)
        path = tmp_path_factory.mktemp("spectral") / "field.txt"
        save_spectral(f, path)
        assert np.array_equal(load_spectral(path).coeffs, f.coeffs)

    @pytest.mark.parametrize("line, message", [
        ("1 0 0.5", "expected 4 fields"),
        ("1 0 0.5 0.0 7", "expected 4 fields"),
        ("3 1 0.5 0.0", "0 <= m <= j <= L"),
        ("1 2 0.5 0.0", "0 <= m <= j <= L"),
        ("1 -1 0.5 0.0", "0 <= m <= j <= L"),
        ("1 1 nan 0.0", "non-finite"),
        ("1 1 0.5 inf", "non-finite"),
        ("1 x 0.5 0.0", "not 'int int float float'"),
        ("0 0 2.0 0.0", r"duplicate coefficient \(j, m\) = \(0, 0\)"),
        ("2 0 0.5 1e-3", "m = 0 coefficient of a real field has imaginary part"),
    ])
    def test_malformed_line_rejected_with_its_number(self, tmp_path, line, message):
        path = tmp_path / "field.txt"
        path.write_text(f"L 2\n0 0 1.0 0.0\n{line}\n")
        with pytest.raises(ValueError, match=message) as err:
            load_spectral(path)
        assert "line 3" in str(err.value)

    def test_m0_dust_of_a_valid_field_reads_back(self, tmp_path):
        f = from_coeff_dict(3, {(2, 0): 1 + 1e-14j})
        path = tmp_path / "field.txt"
        save_spectral(f, path)
        assert load_spectral(path).coeffs.tobytes() == f.coeffs.tobytes()

    def test_m0_imaginary_part_is_judged_against_the_whole_file(self, tmp_path):
        # 1e-11 is dust next to the 1e3 of a later line, but not on its own
        path = tmp_path / "field.txt"
        path.write_text("L 2\n1 0 1.0 1e-11\n2 2 1e3 0.0\n")
        assert load_spectral(path).coeffs[0, 1] == 1 + 1e-11j
        path.write_text("L 2\n1 0 1.0 1e-11\n2 2 0.5 0.0\n")
        with pytest.raises(ValueError, match="line 2 .*imaginary part 1e-11"):
            load_spectral(path)

    @pytest.mark.parametrize("L", [171, 100000])
    def test_header_above_max_l_rejected_before_allocating(self, tmp_path, monkeypatch, L):
        path = tmp_path / "field.txt"
        path.write_text(f"L {L}\n0 0 1.0 0.0\n")

        def no_allocation(*args, **kwargs):
            raise AssertionError("load_spectral allocated before checking L")

        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(ValueError, match=f"header L = {L} exceeds the largest supported L = 170"):
            load_spectral(path)

    def test_header_at_max_l_reads(self, tmp_path):
        path = tmp_path / "field.txt"
        path.write_text("L 170\n170 3 0.5 0.25\n")
        f = load_spectral(path)
        assert f.L == 170
        assert f.coeffs[3, 170] == 0.5 + 0.25j

    @pytest.mark.parametrize("header", ["", "L", "L two", "L -1", "N 3"])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "field.txt"
        path.write_text(f"{header}\n0 0 1.0 0.0\n")
        with pytest.raises(ValueError, match="bad spectral file header"):
            load_spectral(path)
