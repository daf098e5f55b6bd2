"""End-to-end acceptance suite.

Each test prints one pass/fail line (criterion 1..9) on the real stdout
so the summary is visible even under pytest capture.  Tolerances are
fixed; scales (truncation degree, amplitudes) are chosen so the stated
tolerances are attainable on a single core in a few minutes.
"""

import sys
import time

import numpy as np
import pytest

from rhlab.dynamics import SolverConfig, evolve
from rhlab.experiments import (
    ExperimentConfig,
    exp_orbit_traversal,
    exp_rearrangement_bound,
    exp_rh_exactness,
    exp_stability,
    random_bandlimited,
)
from rhlab.functionals import c1_phase_corrected, energy_proxy
from rhlab.harmonics import E2Coeffs, SpectralField, e2_to_spectral, spectral_to_e2
from rhlab.invariants_algebra import (
    char_poly,
    moments_analytic,
    moments_numeric,
    reduced_invariants,
    same_h_orbit_deg2,
    same_o3_orbit,
    solve_polysys,
    verify_abcde_system,
)
from rhlab.operators import poincare_gap, sin_theta_field
from rhlab.rotations import reflect_longitude, rotate_polar, rotate_so3
from tests.conftest import acceptance_report_lines, random_spectral

BASE_Y = E2Coeffs(0.5, 0.3, 0.1, 0.2, 0.1)


def _report(num, desc, ok, detail=""):
    line = f"[criterion {num}] {desc}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    print(line)
    acceptance_report_lines.append(line)
    return ok


class TestCriterion1RHExactness:
    def test_traveling_wave_tracked_to_1e6(self):
        t0 = time.time()
        cfg = ExperimentConfig(name="rh-exactness", L=21, omega=0.5, alpha=1.0,
                               Y=BASE_Y, dt=1e-3, t_end=5.0, diag_every=500)
        res = exp_rh_exactness(cfg, err_tol=1e-6)
        elapsed = time.time() - t0
        ok = res.ok and elapsed < 300.0
        assert _report(1, "traveling-wave exactness", ok,
                       f"{res.messages[0]}, {elapsed:.0f}s"), res.messages


class TestCriterion2Conservation:
    def test_invariants_conserved_over_t10(self):
        L = 31
        eta = random_bandlimited(L, seed=7, max_degree=6)
        z0 = SpectralField(L, 0.2 * eta.coeffs)
        cfg = SolverConfig(L=L, omega=0.5, dt=1e-3, t_end=10.0, diag_every=1000)
        energy, c1, moments = [], [], []
        for t, zeta in evolve(z0, cfg):
            energy.append(energy_proxy(zeta))
            c1.append(c1_phase_corrected(zeta, cfg.omega, t))
            moments.append(np.asarray(moments_numeric(zeta, 7)))
        e0, c0, m0 = energy[0], c1[0], moments[0]
        # random odd moments can start near zero; measure drift against
        # the natural amplitude scale I2^(m/2) when |I_m(0)| is below it
        scale = np.maximum(np.abs(m0), m0[0] ** (np.arange(2, 8) / 2.0))
        drift_e = max(abs(e - e0) / abs(e0) for e in energy)
        drift_c1 = max(float(np.max(np.abs(c - c0))) for c in c1)
        drift_m = float(np.max([np.abs(m - m0) / scale for m in moments]))
        ok = drift_e < 1e-6 and drift_c1 < 1e-8 and drift_m < 1e-6
        assert _report(
            2, "conservation of energy, degree-1 phase, and moments", ok,
            f"energy {drift_e:.1e}, c1 {drift_c1:.1e}, moments {drift_m:.1e}")


class TestCriterion3MomentAlgebra:
    def test_analytic_moments_and_identities(self):
        rng = np.random.default_rng(2024)
        worst_mom = 0.0
        worst_res = 0.0
        for _ in range(100):
            alpha = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
            y = E2Coeffs(*rng.standard_normal(5))
            ms = moments_analytic(alpha, y)
            L = 4
            f = SpectralField(
                L, sin_theta_field(L, alpha).coeffs + e2_to_spectral(y, L).coeffs)
            num = np.asarray(moments_numeric(f, 7))
            ana = np.asarray(ms.I)
            scale = np.maximum(np.abs(ana), ana[0] ** (np.arange(2, 8) / 2.0))
            worst_mom = max(worst_mom, float(np.max(np.abs(num - ana) / scale)))
            residuals, scales = verify_abcde_system(alpha, y)
            worst_res = max(worst_res,
                            max(abs(r) / s for r, s in zip(residuals, scales)))
        ok = worst_mom < 1e-10 and worst_res < 1e-9
        assert _report(3, "moment algebra vs quadrature and identities", ok,
                       f"moments {worst_mom:.1e}, residuals {worst_res:.1e}")


class TestCriterion4PolynomialSystem:
    def test_generic_and_degenerate_instances(self):
        rng = np.random.default_rng(99)
        ok = True
        worst = 0.0
        for _ in range(1000):
            alpha = float(rng.uniform(0.3, 2.0))
            y = E2Coeffs(*rng.standard_normal(5))
            b = moments_analytic(alpha, y).b_vector()
            sols, tag = solve_polysys(alpha, b)
            truth = reduced_invariants(y).as_tuple()
            if tag != "generic" or len(sols) != 1:
                ok = False
                break
            err = max(abs(s - t) for s, t in zip(sols[0], truth))
            err /= max(1.0, max(abs(t) for t in truth))
            worst = max(worst, err)
            if err > 1e-8:
                ok = False
                break
        n_two = 0
        for _ in range(50):
            alpha = float(rng.uniform(0.5, 1.5))
            b3 = alpha**2 / 4.0
            b1 = 11.0 * b3
            b5 = float(rng.uniform(-1.0, 1.0))
            x1 = float(rng.uniform(-1.0, 1.0))
            b6 = 2048.0 * b3 * x1**2 - 72.0 * b5 * x1 - 1904.0 * b3**2
            sols, tag = solve_polysys(alpha, (b1, b5, b3, 3.0 * b5, b5, b6))
            if tag != "degenerate-quadratic" or not (1 <= len(sols) <= 2):
                ok = False
                break
            if not any(abs(s[0] - x1) < 1e-8 for s in sols):
                ok = False
                break
            if len(sols) == 2:
                n_two += 1
                if abs(sols[0][0] - sols[1][0]) < 1e-12:
                    ok = False
                    break
        assert _report(4, "polynomial-system solver oracle", ok,
                       f"worst generic error {worst:.1e}, "
                       f"{n_two}/50 degenerate with two roots")


class TestCriterion5OrbitClassifiers:
    def test_classifiers_under_group_actions(self):
        rng = np.random.default_rng(5150)
        ok = True
        for _ in range(200):
            y = E2Coeffs(*rng.standard_normal(5))
            base = e2_to_spectral(y, 4)
            # polar rotation, optionally composed with the reflection
            g = rotate_polar(base, float(rng.uniform(0.0, 2.0 * np.pi)))
            if rng.random() < 0.5:
                g = reflect_longitude(g)
            if not same_h_orbit_deg2(y, spectral_to_e2(g), tol=1e-9):
                ok = False
                break
            # full rotation
            euler = (float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(0, np.pi)),
                     float(rng.uniform(0, 2 * np.pi)))
            r = rotate_so3(base, euler)
            if not same_o3_orbit(y, spectral_to_e2(r, tol=1e-8), tol=1e-9):
                ok = False
                break
            # the quadratic-form invariants are fixed by the low moments
            ms = moments_analytic(0.0, y)
            p1, p0 = char_poly(y)
            if (abs(p1 + ms.A / 4.0) > 1e-9 * max(1.0, abs(p1))
                    or abs(p0 + ms.B / 2.0) > 1e-9 * max(1.0, abs(p0))):
                ok = False
                break
        assert _report(5, "orbit classifiers under group actions", ok)


class TestCriterion6PoincareGap:
    def test_gap_nonnegative_and_tight(self):
        rng = np.random.default_rng(31337)
        ok = True
        min_gap = np.inf
        for _ in range(1000):
            j = int(rng.integers(1, 6))
            f = random_spectral(9, rng)
            g = poincare_gap(f, j)
            min_gap = min(min_gap, g)
            if g < -1e-12:
                ok = False
                break
        exact = True
        for _ in range(200):
            j = int(rng.integers(1, 6))
            f = random_spectral(9, rng, max_degree=j + 1)
            if poincare_gap(f, j) != 0.0:
                exact = False
                break
        ok = ok and exact
        assert _report(6, "spectral-gap inequality", ok,
                       f"min gap {min_gap:.1e}, equality case exact: {exact}")


class TestCriterion7RearrangementBound:
    def test_functional_below_class_maximum(self):
        cfg = ExperimentConfig(name="rearrange", L=90, omega=0.0, alpha=1.0,
                               Y=BASE_Y, dt=1e-3, t_end=1.0, diag_every=250)
        res = exp_rearrangement_bound(cfg, bound_tol=1e-6, moment_tol=1e-6)
        assert _report(7, "rearrangement-class maximality bound", res.ok,
                       "; ".join(res.messages[:2])), res.messages


class TestCriterion8StabilityTrend:
    def test_polar_orbit_stability(self):
        cfg = ExperimentConfig(name="stability-polar", L=21, omega=0.5, alpha=1.0,
                               Y=BASE_Y, epsilons=(1e-2, 5e-3, 2.5e-3), seed=11,
                               dt=1e-3, t_end=10.0, diag_every=500)
        res = exp_stability(cfg, group="polar", trend_slack=1.1)
        sups = "; ".join(m for m in res.messages if "sup_t" in m)
        assert _report("8a", "polar-orbit stability trend", res.ok, sups), res.messages

    def test_rotation_orbit_stability(self):
        cfg = ExperimentConfig(name="stability-so3", L=21, omega=0.3, alpha=0.0,
                               Y=BASE_Y, epsilons=(1e-2, 5e-3, 2.5e-3), seed=11,
                               dt=1e-3, t_end=10.0, diag_every=500)
        res = exp_stability(cfg, group="so3", trend_slack=1.1)
        sups = "; ".join(m for m in res.messages if "sup_t" in m)
        assert _report("8b", "rotation-orbit stability trend", res.ok, sups), res.messages


class TestCriterion9OrbitTraversal:
    def test_distance_dips_at_predicted_time(self):
        cfg = ExperimentConfig(name="traversal", L=21, omega=0.0, alpha=1.0,
                               Y=BASE_Y, delta=0.05, beta_target=float(np.pi),
                               dt=1e-3, t_end=10.0, diag_every=100)
        res = exp_orbit_traversal(cfg, dip_time_slack=0.05)
        assert _report(9, "orbit traversal at the predicted drift time", res.ok,
                       "; ".join(res.messages)), res.messages
