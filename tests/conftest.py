import numpy as np
import pytest
from hypothesis import settings

from rhlab.harmonics import SpectralField

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
