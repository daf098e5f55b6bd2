import numpy as np
import pytest
from hypothesis import settings

from rhlab.harmonics import SpectralField, analyze, synthesize_gradients
from rhlab.operators import stream_function

# The same draws on every run, so a property that fails for one input in
# a hundred fails every time rather than on one run in many.
settings.register_profile("derandomized", parent=settings.default, derandomize=True)
settings.load_profile("derandomized")


def random_spectral(L, rng, zero_mean=True, max_degree=None):
    """Random real-field coefficients with the structural zeros in place."""
    C = rng.normal(size=(L + 1, L + 1)) + 1j * rng.normal(size=(L + 1, L + 1))
    for m in range(L + 1):
        C[m, :m] = 0.0
    C[0] = C[0].real
    if zero_mean:
        C[0, 0] = 0.0
    if max_degree is not None:
        C[:, max_degree + 1:] = 0.0
    return SpectralField(L=L, coeffs=C)


def reference_tendency(dpsi, dzeta, spec, L):
    """-J(psi, zeta) to degree L from the gradient grids, composed of public functions.

    The operations and their order are those of the tendency before it
    passed arrays between stages: (d_theta psi d_phi zeta - d_phi psi
    d_theta zeta) / cos(theta), `analyze`, then c_0^0 = 0.
    """
    (dpsi_phi, dpsi_th), (dz_phi, dz_th) = dpsi, dzeta
    minus_jac = dpsi_th * dz_phi
    minus_jac = minus_jac - dpsi_phi * dz_th
    minus_jac = minus_jac / spec.cos_theta[:, None]
    C = analyze(minus_jac, spec, L).coeffs
    C[0, 0] = 0.0
    return C


def reference_coupled_tendency(zeta, omega, spec):
    """`reference_tendency` of zeta's own stream: psi and zeta synthesized in one call.

    Synthesis zero-pads a field of lower degree than spec.L.
    """
    psi = stream_function(zeta, omega)
    grads = synthesize_gradients((psi, zeta), spec)
    return reference_tendency(grads[:, 0], grads[:, 1], spec, zeta.L)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# pass/fail lines from the acceptance suite, replayed after the run so
# they are visible even under pytest's output capture
acceptance_report_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_report_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report_lines:
            terminalreporter.write_line(line)
