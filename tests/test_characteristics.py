"""An oracle for prescribed transport that does not go through the stepper's stencil.

Transport by a fixed stream chi rearranges the initial vorticity: the
exact solution is zeta(x, t) = zeta0(X), where the foot X is reached
from x by flowing backward along u = x cross grad h for time t, h the
cubic on R^3 that equals chi on the sphere.  Criterion 7's flow is run
both ways: spectrally, by the RK4 stepper at L=90, and by RK4 on the
characteristics from the nodes of the L=90 default grid, with zeta0, of
degree 2, evaluated exactly at the feet.  The characteristic field is a
true rearrangement, so its moments hold to the grid's quadrature error
and the characteristic RK4's.  Its e_deg2 comes from `analyze` to
degree L, which a field that smooth allows.
"""

import itertools

import numpy as np

from rhlab.dynamics import SolverConfig, evolve
from rhlab.experiments import default_rearrange_stream
from rhlab.functionals import e_deg2, e_deg2_max
from rhlab.grid import build_grid
from rhlab.harmonics import E2Coeffs, SpectralField, analyze, e2_to_spectral, eval_point, norm_l2
from rhlab.rh_waves import exact_state, make_rh

# criterion 7: L=90, alpha=1, omega=0, dt=1e-3 to t=1, a state every 250 steps
L, ALPHA, DT, T_END, DIAG_EVERY = 90, 1.0, 1e-3, 1.0, 250
Y = E2Coeffs(0.5, 0.3, 0.1, 0.2, 0.1)
# Characteristic RK4 steps per diagnostic interval.  With 40 the moments
# drift by <= 2.5e-10 until t = 0.75 and by 5.5e-10 at t = 1, the
# quadrature's share (25 steps drift by more than 1e-9), and e_deg2 is
# 5.5e-11 from the spectral run at most (7e-12 with 60 steps).
SUBSTEPS = 40
CUBICS = [p for p in itertools.product(range(4), repeat=3) if sum(p) == 3]


def to_angles(x):
    return np.arctan2(x[1], x[0]), np.arcsin(np.clip(x[2], -1.0, 1.0))


def unit_vectors(phi, theta):
    return np.stack((np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), np.sin(theta)))


def gradient_tensor(chi):
    """Q with grad h(x)_a = sum_ij Q[a, i, j] x_i x_j, h the cubic on R^3 equal to chi on the sphere.

    The 10 cubic monomials restricted to the sphere span degrees 3 and 1,
    so h is fitted from values of chi at 60 points, exactly up to roundoff.
    """
    rng = np.random.default_rng(3)
    phi, theta = rng.uniform(0.0, 2.0 * np.pi, 60), np.arcsin(rng.uniform(-1.0, 1.0, 60))
    x = unit_vectors(phi, theta)
    basis = np.stack([x[0] ** a * x[1] ** b * x[2] ** c for a, b, c in CUBICS], axis=1)
    values = eval_point(chi, phi, theta)
    coef, *_ = np.linalg.lstsq(basis, values, rcond=None)
    assert np.abs(basis @ coef - values).max() < 1e-13
    Q = np.zeros((3, 3, 3))
    for k, powers in zip(coef, CUBICS):
        for axis in range(3):
            if powers[axis]:
                rest = list(powers)
                rest[axis] -= 1
                i, j = np.repeat(np.arange(3), rest)
                Q[axis, i, j] += k * powers[axis]
    return Q.reshape(3, 9)


def velocity(Q, x):
    """u = x cross grad h: (u_phi, u_theta) = (-chi_theta, chi_phi / cos(theta)) on the sphere."""
    g = Q @ (x[:, None] * x[None, :]).reshape(9, -1)
    return np.stack((x[1] * g[2] - x[2] * g[1], x[2] * g[0] - x[0] * g[2], x[0] * g[1] - x[1] * g[0]))


def backward_rk4(Q, x, duration, steps):
    """The feet: x flowed along -u for `duration`, by `steps` RK4 steps."""
    h = duration / steps
    for _ in range(steps):
        k1 = -velocity(Q, x)
        k2 = -velocity(Q, x + 0.5 * h * k1)
        k3 = -velocity(Q, x + 0.5 * h * k2)
        k4 = -velocity(Q, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x / np.linalg.norm(x, axis=0)


def test_criterion_7_flow_matches_its_characteristics():
    zeta0 = exact_state(make_rh(0.0, ALPHA, e2_to_spectral(Y, L)), 0.0)
    zeta0_deg2 = SpectralField(2, zeta0.coeffs[:3, :3])
    chi = default_rearrange_stream(L)
    M = e_deg2_max(ALPHA, norm_l2(e2_to_spectral(Y, L)) ** 2)

    spectral = [(t, e_deg2(z, ALPHA)) for t, z in evolve(
        zeta0, SolverConfig(L=L, omega=0.0, dt=DT, t_end=T_END, stream=chi, diag_every=DIAG_EVERY))]
    assert [t for t, _ in spectral] == [0.0, 0.25, 0.5, 0.75, 1.0]

    # the characteristics start at the nodes of the degree-L default grid,
    # on which `analyze` gives the characteristic field's degrees <= L
    grid = build_grid(L)
    phi = 2.0 * np.pi * np.arange(grid.n_lon) / grid.n_lon
    theta = np.arcsin(grid.mu_nodes)
    weights = np.outer(grid.weights, np.full(grid.n_lon, 2.0 * np.pi / grid.n_lon))
    Q = gradient_tensor(default_rearrange_stream(3))

    feet = unit_vectors(*np.meshgrid(phi, theta)).reshape(3, -1)
    moments0 = None
    for k, (t, e_spectral) in enumerate(spectral):
        if k:
            feet = backward_rk4(Q, feet, t - spectral[k - 1][0], SUBSTEPS)
        # zeta(node, t) = zeta0(foot): the field after the flow's rearrangement
        values = eval_point(zeta0_deg2, *to_angles(feet)).reshape(grid.n_lat, grid.n_lon)
        moments = np.array([np.sum(weights * values ** p) for p in range(2, 8)])
        if moments0 is None:
            moments0 = moments
        assert np.abs(moments / moments0 - 1.0).max() <= 1e-9, t
        e_char = e_deg2(analyze(values, grid, L), ALPHA)
        assert e_char <= M + 1e-12, t
        assert abs(e_spectral - e_char) <= 2e-10, (t, e_spectral - e_char)
