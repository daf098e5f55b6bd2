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


def e_deg2(f: SpectralField, alpha: float) -> float:
    """(1/2) sum_{j>=2} |c_j^m|^2/(j(j+1)) + (beta/6) c_1^0, beta = sqrt(4pi/3) alpha.

    On states alpha sin(theta) + Y with Y of degree 2 this attains its
    rearrangement-class maximum beta^2/6 + ||Y||^2/12.
    """
    tail = project_band(f, 1, complement=True)
    beta = SINTHETA_C10 * alpha
    return 0.5 * inner_l2(tail, green(tail)) + (beta / 6.0) * float(f.coeffs[0, 1].real)


def e_deg2_max(alpha: float, y_norm_sq: float) -> float:
    """The maximum of e_deg2 over the rearrangement class of alpha sin(theta) + Y.

    An alpha whose beta^2 overflows a float raises OverflowError naming it.
    """
    beta = SINTHETA_C10 * alpha
    try:
        return beta ** 2 / 6.0 + y_norm_sq / 12.0
    except OverflowError:
        raise OverflowError(f"alpha = {alpha:g}") from None
