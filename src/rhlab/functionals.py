"""Conserved and Lyapunov-candidate functionals, evaluated spectrally.

Everything here is a function of the spherical-harmonic coefficients
alone (no grid quadrature), so flow-invariance measurements isolate the
time-integration error.  The degree-1 coefficients are read in the
complex basis, with c_1^{-1} = -conj(c_1^1) by reality.
"""

from __future__ import annotations

import numpy as np

from .harmonics import SpectralField, inner_l2
from .operators import SINTHETA_C10, green, project_band

REALITY_TOL = 1e-12


def energy_proxy(f: SpectralField) -> float:
    """Sum |c_j^m|^2 / (j(j+1)) over j >= 1, both +/-m counted.

    Twice the kinetic energy of the flow induced by the vorticity f.
    """
    return inner_l2(f, green(f))


def c1_triple(f: SpectralField) -> tuple[complex, float, complex]:
    """(c_1^{-1}, c_1^0, c_1^1) of f."""
    c11 = complex(f.coeffs[1, 1])
    return (-np.conj(c11), float(f.coeffs[0, 1].real), c11)


def c1_phase_corrected(f: SpectralField, omega: float, t: float) -> np.ndarray:
    """(c_1^{-1} e^{i omega t}, c_1^0, c_1^1 e^{-i omega t}) of f.

    The rotation makes the degree-1 coefficients of an Euler solution
    precess at rate omega; this combination is conserved along it.
    """
    c1m, c10, c1p = c1_triple(f)
    ph = np.exp(-1j * omega * t)
    return np.asarray((c1m / ph, c10, c1p * ph))


def e_deg1_a(f: SpectralField, Y1: tuple[complex, complex, complex]) -> float:
    """|c_1^0 + a|^2 + |c_1^1 + b|^2 + |c_1^{-1} + c|^2 for reference (a, b, c).

    The reference must satisfy the reality pairing b = -conj(c).
    """
    a, b, c = Y1
    if abs(b + np.conj(c)) > REALITY_TOL:
        raise ValueError("reference degree-1 coefficients violate b = -conj(c)")
    c1m, c10, c1p = c1_triple(f)
    return float(abs(c10 + a) ** 2 + abs(c1p + b) ** 2 + abs(c1m + c) ** 2)


def e_deg1_b(f: SpectralField, a: float) -> float:
    """a c_1^0(f) + |c_1^1(f)|^2."""
    _, c10, c1p = c1_triple(f)
    return float(a * c10 + abs(c1p) ** 2)


def e_arnold1(f: SpectralField, omega: float) -> float:
    """(1/2) int f G f - omega int sin(theta) f, spectrally."""
    return 0.5 * energy_proxy(f) - omega * SINTHETA_C10 * float(f.coeffs[0, 1].real)


def e_arnold2(f: SpectralField, omega: float, zeta_ref: SpectralField) -> float:
    """Second-variation Arnold functional with a degree-1 reference term.

    e_arnold1(f) - (1/6) sum_m |c_1^m(f)|^2 + (1/3) <f, P_1 zeta_ref>.
    """
    c1m, c10, c1p = c1_triple(f)
    deg1_f = c10 ** 2 + 2.0 * abs(c1p) ** 2
    r1m, r10, r1p = c1_triple(zeta_ref)
    cross = c10 * r10 + 2.0 * float(np.real(c1p * np.conj(r1p)))
    return e_arnold1(f, omega) - deg1_f / 6.0 + cross / 3.0


def e_deg2(f: SpectralField, alpha: float) -> float:
    """(1/2) sum_{j>=2} |c_j^m|^2/(j(j+1)) + (beta/6) c_1^0, beta = sqrt(4pi/3) alpha.

    On states alpha sin(theta) + Y with Y of degree 2 this attains its
    rearrangement-class maximum beta^2/6 + ||Y||^2/12.
    """
    tail = project_band(f, 1, complement=True)
    beta = SINTHETA_C10 * alpha
    return 0.5 * inner_l2(tail, green(tail)) + (beta / 6.0) * float(f.coeffs[0, 1].real)


def e_deg2_max(alpha: float, y_norm_sq: float) -> float:
    """The maximum of e_deg2 over the rearrangement class of alpha sin(theta) + Y."""
    beta = SINTHETA_C10 * alpha
    return beta ** 2 / 6.0 + y_norm_sq / 12.0
