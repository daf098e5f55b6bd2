import numpy as np
import pytest

from rhlab.dynamics import MAX_STREAM_DEGREE, SolverConfig, Stepper, evolve
from rhlab.experiments import default_rearrange_stream
from rhlab.functionals import c1_phase_corrected, e_deg2, energy_proxy
from rhlab.grid import build_grid, exact_shape
from rhlab.harmonics import (
    E2Coeffs,
    SpectralField,
    _field,
    default_grid,
    e2_to_spectral,
    from_coeff_dict,
    norm_l2,
    synthesize_dphi,
    synthesize_dtheta,
    top_degree,
)
from rhlab.rh_waves import exact_state, make_rh
from tests.conftest import random_spectral, reference_coupled_tendency, reference_tendency


def rh_setup(L=12, alpha=0.7, omega=0.3):
    Y = e2_to_spectral(E2Coeffs(0.5, 0.3, 0.1, 0.2, 0.1), L)
    s = make_rh(omega, alpha, Y)
    return s, exact_state(s, 0.0)


class TestStepRK4:
    def test_zonal_state_is_fixed(self):
        L = 10
        zon = from_coeff_dict(L, {(1, 0): 1.0, (3, 0): 0.4})
        cfg = SolverConfig(L=L, omega=0.6, dt=1e-2, t_end=1.0)
        out = Stepper(cfg).step(zon)
        assert np.abs(out.coeffs - zon.coeffs).max() < 1e-13

    def test_single_step_matches_closed_form(self):
        s, z0 = rh_setup(L=21, alpha=1.0, omega=0.5)
        cfg = SolverConfig(L=21, omega=0.5, dt=1e-3, t_end=1e-3)
        _, out = list(evolve(z0, cfg))[-1]
        exact = exact_state(s, 1e-3)
        assert np.abs(out.coeffs - exact.coeffs).max() < 1e-12

    def test_fourth_order_convergence(self):
        s, z0 = rh_setup(L=10, alpha=2.0, omega=-0.8)
        T = 0.64
        errs = []
        for dt in (0.08, 0.04, 0.02):
            cfg = SolverConfig(L=10, omega=s.omega, dt=dt, t_end=T)
            st = Stepper(cfg)
            z = z0
            for k in range(int(round(T / dt))):
                z = st.step(z)
            errs.append(norm_l2(SpectralField(10, z.coeffs - exact_state(s, T).coeffs)))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 10.0 < r1 < 24.0
        assert 10.0 < r2 < 24.0

    def test_aborts_on_nonfinite(self):
        L = 6
        C = np.zeros((L + 1, L + 1), dtype=complex)
        C[0, 1] = np.inf
        cfg = SolverConfig(L=L, omega=0.0, dt=1e-2, t_end=1.0)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="step"):
            Stepper(cfg).step(_field(L, C), step_index=7)

    def test_rejects_nonzero_mean(self):
        c = from_coeff_dict(6, {(0, 0): 1.0})
        cfg = SolverConfig(L=6, omega=0.0, dt=1e-2, t_end=1.0)
        with pytest.raises(ValueError, match="zero-mean"):
            next(evolve(c, cfg))


class TestRun:
    """The evolve loop: which states it yields, and what they conserve."""

    def test_records_cover_endpoints(self, rng):
        L = 8
        z0 = random_spectral(L, rng, max_degree=4)
        cfg = SolverConfig(L=L, omega=0.2, dt=1e-2, t_end=0.1, diag_every=3)
        times = [t for t, _ in evolve(z0, cfg)]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.1)

    def test_energy_and_phase_conservation_short(self, rng):
        L = 10
        z0 = random_spectral(L, rng, max_degree=5)
        z0 = SpectralField(L, 0.3 * z0.coeffs / norm_l2(z0))
        cfg = SolverConfig(L=L, omega=0.4, dt=1e-3, t_end=1.0, diag_every=250)
        e0 = energy_proxy(z0)
        c0 = c1_phase_corrected(z0, cfg.omega, 0.0)
        for t, z in evolve(z0, cfg):
            assert abs(energy_proxy(z) - e0) < 1e-10 * abs(e0)
            assert np.max(np.abs(c1_phase_corrected(z, cfg.omega, t) - c0)) < 1e-10

    def test_degree_two_functional_conserved_near_rh_wave(self):
        # e_deg2 is built from the energy and the degree-1 coefficients,
        # so the nonlinear flow keeps it, perturbation included
        L = 12
        _, z0 = rh_setup(L=L, alpha=0.7, omega=0.3)
        pert = random_spectral(L, np.random.default_rng(5), max_degree=5)
        z0 = SpectralField(L, z0.coeffs + 0.01 * pert.coeffs / norm_l2(pert))
        cfg = SolverConfig(L=L, omega=0.3, dt=1e-3, t_end=0.5, diag_every=500)
        v0 = e_deg2(z0, 0.7)
        _, z = list(evolve(z0, cfg))[-1]
        assert e_deg2(z, 0.7) == pytest.approx(v0, rel=1e-10)

    def test_result_independent_of_diag_interval(self, rng):
        L = 8
        z0 = random_spectral(L, rng, max_degree=4)
        cfg1 = SolverConfig(L=L, omega=0.1, dt=1e-2, t_end=0.2, diag_every=1)
        cfg2 = SolverConfig(L=L, omega=0.1, dt=1e-2, t_end=0.2, diag_every=7)
        _, z1 = list(evolve(z0, cfg1))[-1]
        _, z2 = list(evolve(z0, cfg2))[-1]
        assert np.array_equal(z1.coeffs, z2.coeffs)

    @pytest.mark.parametrize("t_end, steps", [
        (0.1, [0, 4, 8, 10]),  # 10 steps: the last is off the cadence of 4
        (0.08, [0, 4, 8]),     # 8 steps: the last is on it, yielded once
    ])
    def test_last_step_yielded_once(self, rng, t_end, steps):
        L = 6
        z0 = random_spectral(L, rng, max_degree=3)
        cfg = SolverConfig(L=L, omega=0.1, dt=1e-2, t_end=t_end, diag_every=4)
        assert [t for t, _ in evolve(z0, cfg)] == [k * 1e-2 for k in steps]

    def test_zero_end_time_yields_the_initial_field_only(self, rng):
        L = 6
        z0 = random_spectral(L, rng, max_degree=3)
        cfg = SolverConfig(L=L, omega=0.1, dt=1e-2, t_end=0.0)
        states = list(evolve(z0, cfg))
        assert len(states) == 1
        assert states[0][0] == 0.0 and states[0][1] is z0

    def test_rejects_mismatched_truncation(self, rng):
        z0 = random_spectral(6, rng)
        cfg = SolverConfig(L=8, omega=0.0, dt=1e-2, t_end=1.0)
        with pytest.raises(ValueError, match="truncation 6 != config L 8"):
            next(evolve(z0, cfg))


class TestPrescribedStream:
    def test_breaks_degree_two_functional(self):
        # transport by a degree-3 stream moves the state off the
        # maximizing set, so the functional must move by a visible amount
        L = 12
        _, z0 = rh_setup(L=L, alpha=1.0, omega=0.0)
        chi = from_coeff_dict(L, {(3, 1): 1.0 / np.sqrt(2.0)})
        cfg = SolverConfig(L=L, omega=0.0, dt=1e-3, t_end=1.0, stream=chi)
        st = Stepper(cfg)
        z = z0
        for k in range(1000):
            z = st.step(z)
        assert abs(e_deg2(z, 1.0) - e_deg2(z0, 1.0)) > 1e-4

    def test_quadratic_invariant_survives_prescribed_transport(self):
        L = 12
        _, z0 = rh_setup(L=L, alpha=1.0, omega=0.0)
        chi = from_coeff_dict(L, {(3, 1): 1.0 / np.sqrt(2.0)})
        cfg = SolverConfig(L=L, omega=0.0, dt=1e-3, t_end=0.5, stream=chi)
        st = Stepper(cfg)
        z = z0
        for k in range(500):
            z = st.step(z)
        assert norm_l2(z) == pytest.approx(norm_l2(z0), rel=1e-10)

    def test_planes_are_read_only_and_survive_prescribed_steps(self, rng):
        L = 12
        chi = random_spectral(L, rng, max_degree=3)
        st = Stepper(SolverConfig(L=L, omega=0.0, dt=1e-3, t_end=1.0, stream=chi))
        kept = {key: plane.copy() for key, plane in st.planes.items()}
        z = random_spectral(L, rng)
        for _ in range(3):
            z = st.step(z)
        assert st.planes.keys() == kept.keys()
        for key, plane in st.planes.items():
            assert not plane.flags.writeable
            assert plane.tobytes() == kept[key].tobytes()

    def test_prescribed_tendency_repeats_bitwise(self, rng):
        L = 21
        chi = random_spectral(L, rng, max_degree=3)
        cfg = SolverConfig(L=L, omega=0.0, dt=1e-3, t_end=1.0, stream=chi)
        st = Stepper(cfg)
        z1, z2 = random_spectral(L, rng), random_spectral(L, rng)
        first = st.tendency(z1).coeffs.tobytes()
        st.tendency(z2)
        assert st.tendency(z1).coeffs.tobytes() == first

    @pytest.mark.parametrize("stream_L, message", [
        (20, "stream truncation 20 != config L 12"),
        (8, "stream truncation 8 != config L 12"),
    ])
    def test_rejects_a_stream_of_another_truncation(self, rng, stream_L, message):
        chi = random_spectral(stream_L, rng, max_degree=3)
        with pytest.raises(ValueError, match=message):
            SolverConfig(L=12, omega=0.0, dt=1e-3, t_end=1.0, stream=chi)

    def test_rejects_a_stream_above_the_largest_degree(self, rng):
        assert MAX_STREAM_DEGREE == 3
        chi = random_spectral(12, rng, max_degree=4)
        with pytest.raises(ValueError, match="stream of degree 4 exceeds MAX_STREAM_DEGREE = 3"):
            SolverConfig(L=12, omega=0.0, dt=1e-3, t_end=1.0, stream=chi)


def reference_prescribed_tendency(zeta, chi, spec):
    """`reference_tendency` by the stream chi, each grid from a public synthesis of its own."""
    dpsi, dzeta = ((synthesize_dphi(f, spec), synthesize_dtheta(f, spec)) for f in (chi, zeta))
    return reference_tendency(dpsi, dzeta, spec)


def relative_gap(C, reference):
    return np.abs(C - reference).max() / np.abs(reference).max()


class TestArrayPathBitwise:
    """The stepping path equals the public composition of the tendency.

    Coupled mode runs the composition's operations in its order, so the
    bits agree.  The prescribed stencil is a different sum, and an exact
    one, so it agrees to roundoff.
    """

    def test_prescribed_tendency(self, rng):
        L = 21
        chi = random_spectral(L, rng, max_degree=3)
        st = Stepper(SolverConfig(L=L, omega=0.0, dt=1e-3, t_end=1.0, stream=chi))
        zeta = random_spectral(L, rng)
        want = reference_prescribed_tendency(zeta, chi, st.spec)
        assert relative_gap(st.tendency(zeta).coeffs, want) <= 1e-12

    @pytest.mark.parametrize("mode", ["coupled", "prescribed"])
    def test_twenty_steps(self, rng, mode):
        L, dt = 21, 1e-3
        chi = random_spectral(L, rng, max_degree=3) if mode == "prescribed" else None
        st = Stepper(SolverConfig(L=L, omega=0.5, dt=dt, t_end=1.0, stream=chi))

        def tendency(C):
            if chi is None:
                return reference_coupled_tendency(_field(L, C), 0.5, st.spec)
            return reference_prescribed_tendency(_field(L, C), chi, st.spec)

        zeta = random_spectral(L, rng)
        C = zeta.coeffs
        for _ in range(20):
            zeta = st.step(zeta)
            k1 = tendency(C)
            k2 = tendency(C + 0.5 * dt * k1)
            k3 = tendency(C + 0.5 * dt * k2)
            k4 = tendency(C + dt * k3)
            C = C + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            C[0, 0] = 0.0
        if mode == "coupled":
            assert zeta.coeffs.tobytes() == C.tobytes()
        else:
            assert relative_gap(zeta.coeffs, C) <= 1e-12


class TestGridRule:
    """The stepper's grid is exact_shape(2L + d), d the top degree of the transporting field."""

    @pytest.mark.parametrize("L", [2, 12, 90])
    def test_coupled_stepper_steps_on_the_default_grid(self, L):
        st = Stepper(SolverConfig(L=L, omega=0.3, dt=1e-3, t_end=1.0))
        assert st.spec is default_grid(L)

    def test_rearrangement_stream_at_L90_steps_on_92_by_192(self):
        st = Stepper(SolverConfig(L=90, omega=0.0, dt=1e-3, t_end=1.0,
                                  stream=default_rearrange_stream(90)))
        assert (st.spec.n_lat, st.spec.n_lon) == (92, 192)

    @pytest.mark.parametrize("L, d", [(L, d) for L in (12, 21, 90) for d in (1, 3)])
    def test_prescribed_tendency_matches_the_default_grid(self, L, d):
        rng = np.random.default_rng(10 * L + d)
        chi = random_spectral(L, rng, max_degree=d)
        assert top_degree(chi) == d
        st = Stepper(SolverConfig(L=L, omega=0.0, dt=1e-3, t_end=1.0, stream=chi))
        assert (st.spec.n_lat, st.spec.n_lon) == exact_shape(2 * L + d)
        zeta = random_spectral(L, rng)
        want = reference_prescribed_tendency(zeta, chi, default_grid(L))
        assert relative_gap(st.tendency(zeta).coeffs, want) <= 1e-12

    # d = 1 has no such grid: one latitude fewer than exact_shape(2L) is
    # below the L+1 that analysis to degree L needs
    @pytest.mark.parametrize("L, d", [(L, d) for L in (12, 21, 90) for d in (3, L // 2, L)])
    def test_one_latitude_fewer_than_the_rule_is_inexact(self, L, d):
        rng = np.random.default_rng(10 * L + d)
        chi = random_spectral(L, rng, max_degree=d)
        zeta = random_spectral(L, rng)
        n_lat, n_lon = exact_shape(2 * L + d - 1)
        short = reference_prescribed_tendency(zeta, chi, build_grid(L, n_lat - 1, n_lon))
        want = reference_prescribed_tendency(zeta, chi, default_grid(L))
        assert relative_gap(short, want) > 1e-3

    def test_zero_stream_steps_on_exact_shape_2L_with_zero_tendency(self, rng):
        L = 12
        zero = _field(L, np.zeros((L + 1, L + 1), dtype=complex))
        assert top_degree(zero) == 0
        st = Stepper(SolverConfig(L=L, omega=0.0, dt=1e-2, t_end=1.0, stream=zero))
        assert (st.spec.n_lat, st.spec.n_lon) == exact_shape(2 * L) == (L + 1, 25)
        zeta = random_spectral(L, rng)
        assert not st.tendency(zeta).coeffs.any()
        assert np.array_equal(st.step(zeta).coeffs, zeta.coeffs)


def stencil_streams(L, rng):
    """The streams the stencil is checked on, by name: every kind of order and degree set up to 3."""
    return {
        "default": default_rearrange_stream(L),
        "degree 3, every order": random_spectral(L, rng, max_degree=3),
        "degree 1": random_spectral(L, rng, max_degree=1),
        "zonal": from_coeff_dict(L, {(1, 0): 0.3, (2, 0): -0.8, (3, 0): 0.5}),
        "c_0^0 != 0": random_spectral(L, rng, zero_mean=False, max_degree=3),
    }


class TestStencil:
    """Prescribed transport as a spectral stencil, against the transform composition."""

    # The largest gap measured, relative, over the streams: 1.8e-15 at
    # L=12, 2.5e-15 at 21, 1.9e-14 at 90 and 3.3e-14 at 170.
    @pytest.mark.parametrize("L, bound", [(12, 6e-15), (21, 8e-15), (90, 6e-14), (170, 1e-13)])
    def test_matches_the_composition(self, L, bound):
        rng = np.random.default_rng(L)
        for name, chi in stencil_streams(L, rng).items():
            st = Stepper(SolverConfig(L=L, omega=0.0, dt=1e-3, t_end=1.0, stream=chi))
            zeta = random_spectral(L, rng)
            want = reference_prescribed_tendency(zeta, chi, st.spec)
            assert relative_gap(st.tendency(zeta).coeffs, want) <= bound, name

    @pytest.mark.parametrize("L", [5, 12])
    def test_single_source_probes_entry_by_entry(self, L):
        rng = np.random.default_rng(L)
        for name, chi in stencil_streams(L, rng).items():
            st = Stepper(SolverConfig(L=L, omega=0.0, dt=1e-3, t_end=1.0, stream=chi))
            scale = max(np.abs(plane).max() for plane in st.planes.values())
            for m, j in zip(*np.triu_indices(L + 1)):
                for unit in (1.0, 1j)[: 2 if m else 1]:
                    probe = from_coeff_dict(L, {(j, m): unit})
                    got = st.tendency(probe).coeffs
                    want = reference_prescribed_tendency(probe, chi, st.spec)
                    assert np.abs(got - want).max() <= 1e-14 * scale, (name, j, m, unit)

    def test_default_stream_has_six_planes_and_the_conjugate_row(self):
        L = 12
        st = Stepper(SolverConfig(L=L, omega=0.0, dt=1e-3, t_end=1.0,
                                  stream=default_rearrange_stream(L)))
        assert sorted(st.planes) == [(mu, delta) for mu in (-1, 1) for delta in (-2, 0, 2)]
        for (mu, delta), plane in st.planes.items():
            assert plane.shape == (L + 1, L + 1)
            assert not np.tril(plane, -1).any()  # no output below its order
            # order 0 reads order 1 through mu = -1 and the conjugate
            # row, order -1, through mu = +1; order L + 1 is no source
            assert plane[0].any()
            if mu == -1:
                assert not plane[L].any()


# The prescribed tendency in closed form, an oracle that shares nothing
# with the quadrature build: no Gauss node, no Legendre table.  The
# tendency is i sum_a (d_a chi~)(L_a zeta), chi~ = sum_d r^d chi_d the
# solid extension of chi and L_a = -i r^ x grad the angular momentum, that
# is i[(1/2)(d_x - i d_y)chi~ L_+ zeta + (1/2)(d_x + i d_y)chi~ L_- zeta
# + d_z chi~ L_z zeta].  Each factor is a banded map of the orthonormal
# Condon-Shortley harmonics Y_j^m, written as (dm, dj, coefficient(m, j))
# for Y_j^m -> coefficient Y_{j+dj}^{m+dm}.
ANGULAR_MOMENTUM = {
    "z": [(0, 0, lambda m, j: m)],
    "+": [(1, 0, lambda m, j: np.sqrt((j - m) * (j + m + 1)))],
    "-": [(-1, 0, lambda m, j: np.sqrt((j + m) * (j - m + 1)))],
}
MULTIPLY = {  # by z, x + iy and x - iy
    "z": [(0, 1, lambda m, j: np.sqrt(((j + 1) ** 2 - m**2) / ((2 * j + 1) * (2 * j + 3)))),
          (0, -1, lambda m, j: np.sqrt((j**2 - m**2) / ((2 * j - 1) * (2 * j + 1))))],
    "+": [(1, 1, lambda m, j: -np.sqrt((j + m + 1) * (j + m + 2) / ((2 * j + 1) * (2 * j + 3)))),
          (1, -1, lambda m, j: np.sqrt((j - m) * (j - m - 1) / ((2 * j - 1) * (2 * j + 1))))],
    "-": [(-1, 1, lambda m, j: np.sqrt((j - m + 1) * (j - m + 2) / ((2 * j + 1) * (2 * j + 3)))),
          (-1, -1, lambda m, j: -np.sqrt((j + m) * (j + m - 1) / ((2 * j - 1) * (2 * j + 1))))],
}
# Y_j^m of degree <= 2 as polynomials: (coefficient, product of z, x + iy, x - iy) terms
LOW_HARMONICS = {
    (0, 0): [(np.sqrt(1 / (4 * np.pi)), "")],
    (1, 0): [(np.sqrt(3 / (4 * np.pi)), "z")],
    (1, 1): [(-np.sqrt(3 / (8 * np.pi)), "+")],
    (1, -1): [(np.sqrt(3 / (8 * np.pi)), "-")],
    (2, 0): [(3 * np.sqrt(5 / (16 * np.pi)), "zz"), (-np.sqrt(5 / (16 * np.pi)), "")],
    (2, 1): [(-np.sqrt(15 / (8 * np.pi)), "z+")],
    (2, -1): [(np.sqrt(15 / (8 * np.pi)), "z-")],
    (2, 2): [(np.sqrt(15 / (32 * np.pi)), "++")],
    (2, -2): [(np.sqrt(15 / (32 * np.pi)), "--")],
}
# d_z, d_x + i d_y and d_x - i d_y of r^l Y_l^m: (dm, coefficient(m, l)) of
# r^{l-1} Y_{l-1}^{m+dm}, times sqrt((2l + 1)/(2l - 1))
SOLID_GRADIENT = {
    "z": (0, lambda m, l: np.sqrt((l + m) * (l - m))),
    "+": (1, lambda m, l: np.sqrt((l - m) * (l - m - 1))),
    "-": (-1, lambda m, l: -np.sqrt((l + m) * (l + m - 1))),
}


def every_order(C):
    """{(j, m): c_j^m} of a stored field over every order: c_j^{-m} = (-1)^m conj(c_j^m)."""
    out = {}
    for m, j in zip(*np.nonzero(C)):
        out[j, m] = C[m, j]
        if m:
            out[j, -m] = (-1) ** m * np.conj(C[m, j])
    return out


def then(op, maps, K):
    """The banded map op = {(dm, dj): A[m + K, j]}, A weighing source (m, j)
    into (m + dm, j + dj), followed by the sum of `maps`; |m| <= j <= K."""
    m0, j0 = np.meshgrid(np.arange(-K, K + 1), np.arange(K + 1), indexing="ij")
    out = {}
    with np.errstate(invalid="ignore", divide="ignore"):
        for (dm, dj), A in op.items():
            m, j = m0 + dm, j0 + dj
            for em, ej, coefficient in maps:
                ok = (np.abs(m) <= j) & (np.abs(m + em) <= j + ej) & (j + ej <= K)
                key = (dm + em, dj + ej)
                out[key] = out.get(key, 0.0) + np.where(ok, coefficient(m, j) * A, 0.0)
    return out


def times_field(op, g, K):
    """op followed by multiplication by the field g = {(j, m): g_j^m} of degree <= 2."""
    out = {}
    for (j, m), value in g.items():
        for coefficient, word in LOW_HARMONICS[j, m]:
            term = op
            for letter in word:
                term = then(term, MULTIPLY[letter], K)
            for key, A in term.items():
                out[key] = out.get(key, 0.0) + value * coefficient * A
    return out


def solid_gradient(chi, axis):
    dm, coefficient = SOLID_GRADIENT[axis]
    out = {}
    for (l, m), c in chi.items():
        if l and abs(m + dm) <= l - 1:
            v = np.sqrt((2 * l + 1) / (2 * l - 1)) * coefficient(m, l) * c
            out[l - 1, m + dm] = out.get((l - 1, m + dm), 0.0) + v
    return out


def closed_form_transport(chi, L):
    """The prescribed tendency as a banded map on every order, composed on degrees <= L + 3."""
    K = L + 3
    m, j = np.meshgrid(np.arange(-K, K + 1), np.arange(K + 1), indexing="ij")
    identity = {(0, 0): (np.abs(m) <= j).astype(complex)}
    chi = every_order(chi.coeffs)
    out = {}
    for angular, gradient, weight in (("+", "-", 0.5j), ("-", "+", 0.5j), ("z", "z", 1j)):
        term = times_field(then(identity, ANGULAR_MOMENTUM[angular], K),
                           solid_gradient(chi, gradient), K)
        for key, A in term.items():
            out[key] = out.get(key, 0.0) + weight * A
    return out, K


def closed_form_planes(chi, L):
    """`Stepper.planes` from the closed form: a source of negative order m is read
    as conj(c_j^{|m|}), so its entries carry (-1)^{|m|}."""
    op, K = closed_form_transport(chi, L)
    mo, jo = np.meshgrid(np.arange(L + 1), np.arange(L + 1), indexing="ij")
    planes = {}
    for (mu, delta), A in op.items():
        m, j = mo - mu, jo - delta
        ok = (mo <= jo) & (np.abs(m) <= j) & (j <= L)
        entries = A[np.where(ok, m + K, 0), np.where(ok, j, 0)]
        planes[mu, delta] = np.where(ok, np.where(m < 0, (-1.0) ** np.abs(m), 1.0) * entries, 0.0)
    return planes


def closed_form_tendency(zeta, chi):
    """The prescribed tendency of zeta, with c_0^0 and the imaginary parts of order 0 set to zero."""
    L = zeta.L
    op, K = closed_form_transport(chi, L)
    source = np.zeros((2 * K + 1, K + 1), dtype=complex)
    for (j, m), c in every_order(zeta.coeffs).items():
        source[m + K, j] = c
    full = np.zeros((2 * K + 1, K + 1), dtype=complex)
    for (dm, dj), A in op.items():
        products = A * source  # nonzero only where both ends have |m| <= j <= K
        full[max(dm, 0) : 2 * K + 1 + min(dm, 0), max(dj, 0) : K + 1 + min(dj, 0)] += \
            products[max(-dm, 0) : 2 * K + 1 - max(dm, 0), max(-dj, 0) : K + 1 - max(dj, 0)]
    T = full[K : K + L + 1, : L + 1].copy()
    T[0, 0] = 0.0
    T.imag[0] = 0.0
    return T


class TestStencilClosedForm:
    """The stencil against the closed form of the prescribed tendency."""

    # measured: <= 3.3e-15 of the largest entry (at L=90, 1.5e-14)
    @pytest.mark.parametrize("L", [5, 12, 21])
    def test_planes_match_the_closed_form(self, L):
        rng = np.random.default_rng(L)
        for name, chi in stencil_streams(L, rng).items():
            st = Stepper(SolverConfig(L=L, omega=0.0, dt=1e-3, t_end=1.0, stream=chi))
            scale = max(np.abs(plane).max() for plane in st.planes.values())
            want = {key: plane for key, plane in closed_form_planes(chi, L).items()
                    if np.abs(plane).max() > 1e-13 * scale}
            assert sorted(st.planes) == sorted(want), name
            for key, plane in st.planes.items():
                assert np.abs(plane - want[key]).max() <= 1e-14 * scale, (name, key)

    # measured: <= 1.2e-14 relative
    def test_tendency_at_L90_matches_the_closed_form(self):
        L = 90
        rng = np.random.default_rng(L)
        for name, chi in stencil_streams(L, rng).items():
            st = Stepper(SolverConfig(L=L, omega=0.0, dt=1e-3, t_end=1.0, stream=chi))
            zeta = random_spectral(L, rng)
            assert relative_gap(st.tendency(zeta).coeffs, closed_form_tendency(zeta, chi)) <= 3.5e-14, name
