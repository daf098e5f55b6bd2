"""Rossby-Haurwitz states: construction and the exact traveling-wave
evolution.

An RH state is zeta(phi, theta, t) = alpha sin(theta) + Y(phi - c t, theta)
with Y supported on a single spherical-harmonic degree j and traveling
speed c = alpha (1/2 - 1/(j(j+1))) - omega.  It solves the vorticity
equation exactly, so it serves as the oracle for the time integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import SpectralField, _field
from .operators import SINTHETA_C10
from .rotations import rotate_polar

DEGREE_PURITY_TOL = 1e-12


@dataclass(frozen=True)
class RHState:
    omega: float
    alpha: float
    degree_j: int
    Y: SpectralField
    speed_c: float


def rh_speed(alpha: float, omega: float, j: int) -> float:
    """Traveling speed c = alpha (1/2 - 1/(j(j+1))) - omega."""
    return alpha * (0.5 - 1.0 / (j * (j + 1.0))) - omega


def make_rh(omega: float, alpha: float, Y: SpectralField) -> RHState:
    """Build an RH state from a single-degree spherical part Y; alpha and omega must be finite."""
    if not (math.isfinite(alpha) and math.isfinite(omega)):
        raise ValueError(f"alpha and omega must be finite, got alpha={alpha:g}, omega={omega:g}")
    energy = np.abs(Y.coeffs) ** 2
    energy[1:] *= 2.0  # both +/-m
    per_degree = energy.sum(axis=0)
    total = per_degree.sum()
    if total == 0.0:
        raise ValueError("Y must be nonzero")
    j = int(np.argmax(per_degree))
    off = total - per_degree[j]
    if off > DEGREE_PURITY_TOL * total:
        raise ValueError(
            f"Y spans multiple degrees (off-degree mass {off / total:.3e} relative)"
        )
    if j < 1:
        raise ValueError("Y must have degree >= 1")
    C = np.zeros_like(Y.coeffs)
    C[:, j] = Y.coeffs[:, j]
    return RHState(
        omega=omega,
        alpha=alpha,
        degree_j=j,
        Y=_field(Y.L, C),
        speed_c=rh_speed(alpha, omega, j),
    )


def exact_state(s: RHState, t: float) -> SpectralField:
    """Closed-form state at time t: alpha sin(theta) + Y(phi - c t, theta)."""
    zonal = np.zeros_like(s.Y.coeffs)
    zonal[0, 1] = s.alpha * SINTHETA_C10
    return _field(s.Y.L, zonal + rotate_polar(s.Y, -s.speed_c * t).coeffs)

