import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhlab.grid import GridField, build_grid, integrate
from rhlab.harmonics import (
    E2Coeffs,
    SpectralField,
    _legendre_contract,
    _legendre_quadrature,
    analyze,
    default_grid,
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
)
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
        assert integrate(GridField(values=g.values**2, spec=spec)) == pytest.approx(
            expected, abs=1e-12)

    def test_cross_orthogonality(self):
        L = 10
        spec = build_grid(L)
        g1 = synthesize(from_coeff_dict(L, {(3, 2): 1.0}), spec)
        g2 = synthesize(from_coeff_dict(L, {(5, 2): 1.0}), spec)
        assert abs(integrate(GridField(values=g1.values * g2.values, spec=spec))) < 1e-12


class TestTransformPair:
    def test_analyze_recovers_single_harmonic(self, rng):
        L = 8
        spec = build_grid(L)
        g = synthesize(from_coeff_dict(L, {(2, 0): 1.0}), spec)
        c = analyze(g, L)
        assert c.coeffs[0, 2] == pytest.approx(1.0, abs=1e-12)
        other = c.coeffs.copy()
        other[0, 2] = 0.0
        assert np.abs(other).max() < 1e-12

    def test_constant_field_mean_coefficient(self):
        L = 4
        spec = build_grid(L)
        g = GridField(values=np.ones((spec.n_lat, spec.n_lon)), spec=spec)
        c = analyze(g, L)
        assert c.coeffs[0, 0] == pytest.approx(np.sqrt(4.0 * np.pi), rel=1e-13)

    @given(seed=st.integers(0, 2**32 - 1), L=st.integers(3, 42))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip(self, seed, L):
        spec = build_grid(L)
        f = random_spectral(L, np.random.default_rng(seed), zero_mean=False)
        f2 = analyze(synthesize(f, spec), L)
        assert np.abs(f2.coeffs - f.coeffs).max() < 1e-12 * max(
            1.0, np.abs(f.coeffs).max())

    def test_parseval(self, rng):
        L = 16
        spec = build_grid(L)
        f = random_spectral(L, rng, zero_mean=False)
        g = synthesize(f, spec)
        quad = integrate(GridField(values=g.values**2, spec=spec))
        spectral = inner_l2(f, f)
        assert quad == pytest.approx(spectral, rel=1e-11)

    def test_synthesize_linearity(self, rng):
        L = 6
        spec = build_grid(L)
        f = random_spectral(L, rng)
        g = random_spectral(L, rng)
        lhs = synthesize(SpectralField(L, 2.5 * f.coeffs + g.coeffs), spec).values
        rhs = 2.5 * synthesize(f, spec).values + synthesize(g, spec).values
        assert np.abs(lhs - rhs).max() < 1e-13 * max(1.0, np.abs(rhs).max())

    def test_zero_coefficients_give_zero_field(self):
        L = 5
        spec = build_grid(L)
        g = synthesize(from_coeff_dict(L, {}), spec)
        assert np.abs(g.values).max() == 0.0

    def test_undersized_grid_rejected(self):
        spec = build_grid(4)
        g = GridField(values=np.zeros((spec.n_lat, spec.n_lon)), spec=spec)
        with pytest.raises(ValueError):
            analyze(g, 40)


class TestLegendreContraction:
    """The real-arithmetic kernel against a direct complex einsum."""

    L = 90

    def test_synthesis_direction_matches_complex_einsum(self, rng):
        P = grid_tables(default_grid(self.L))["P"]
        C = random_spectral(self.L, rng, zero_mean=False).coeffs
        want = np.einsum("mj,mjk->mk", C, P)
        got = _legendre_contract(C, P)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_analysis_direction_matches_complex_einsum(self, rng):
        spec = default_grid(self.L)
        Pw = grid_tables(spec)["Pw"]
        F = rng.normal(size=(spec.n_lat, self.L + 1)) + 1j * rng.normal(size=(spec.n_lat, self.L + 1))
        want = np.einsum("mjk,km->mj", Pw, F)
        got = _legendre_contract(F.T, Pw.transpose(0, 2, 1))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_quadrature_in_stored_layout_matches_complex_einsum(self, rng):
        spec = default_grid(self.L)
        Pw = grid_tables(spec)["Pw"]
        F = rng.normal(size=(spec.n_lat, self.L + 1)) + 1j * rng.normal(size=(spec.n_lat, self.L + 1))
        want = np.einsum("mjk,km->mj", Pw, F)
        got = _legendre_quadrature(Pw, F)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_shared_tables_are_read_only(self):
        tables = grid_tables(build_grid(5))
        for name in ("P", "Pw", "dP"):
            with pytest.raises(ValueError, match="read-only"):
                tables[name][0, 0, 0] = 1.0


class TestEvalPoint:
    def test_pole_value(self):
        c = from_coeff_dict(4, {(2, 0): 1.0})
        # sqrt(5/16pi) * (3 - 1) at the north pole
        assert eval_point(c, 0.0, np.pi / 2) == pytest.approx(
            np.sqrt(5.0 / (4.0 * np.pi)), abs=1e-13)

    def test_matches_grid_synthesis(self, rng):
        L = 9
        spec = build_grid(L)
        f = random_spectral(L, rng)
        g = synthesize(f, spec)
        theta = np.arcsin(spec.mu_nodes)
        PH, TH = np.meshgrid(spec.phi, theta)
        assert np.abs(eval_point(f, PH, TH) - g.values).max() < 1e-12

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
        assert np.abs(g.values - explicit).max() < 1e-13

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

    @pytest.mark.parametrize("header", ["", "L", "L two", "L -1", "N 3"])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "field.txt"
        path.write_text(f"{header}\n0 0 1.0 0.0\n")
        with pytest.raises(ValueError, match="bad spectral file header"):
            load_spectral(path)
