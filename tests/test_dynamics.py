import numpy as np
import pytest

from rhlab.dynamics import SolverConfig, Stepper, evolve
from rhlab.functionals import c1_phase_corrected, e_deg2, energy_proxy
from rhlab.harmonics import (
    E2Coeffs,
    SpectralField,
    e2_to_spectral,
    from_coeff_dict,
    norm_l2,
)
from rhlab.rh_waves import exact_state, make_rh
from tests.conftest import random_spectral


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
            Stepper(cfg).step(SpectralField(L, C), step_index=7)

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

    def test_stream_grids_survive_prescribed_steps(self, rng):
        L = 12
        cfg = SolverConfig(L=L, omega=0.0, dt=1e-3, t_end=1.0, stream=random_spectral(L, rng))
        st = Stepper(cfg)
        kept = st._psi_grids.copy()
        z = random_spectral(L, rng)
        for _ in range(3):
            z = st.step(z)
        assert st._psi_grids.tobytes() == kept.tobytes()

    def test_prescribed_tendency_repeats_bitwise(self, rng):
        L = 21
        cfg = SolverConfig(L=L, omega=0.0, dt=1e-3, t_end=1.0, stream=random_spectral(L, rng))
        st = Stepper(cfg)
        z1, z2 = random_spectral(L, rng), random_spectral(L, rng)
        first = st.tendency(z1).coeffs.tobytes()
        st.tendency(z2)
        assert st.tendency(z1).coeffs.tobytes() == first
