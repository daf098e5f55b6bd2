"""Spectral differential operators on the sphere.

Laplace-Beltrami, its zero-mean inverse (the Green operator), band
projections, velocity recovery from an absolute-vorticity field, the
advection tendency of the vorticity equation, and the spectral-gap
quantity behind the Poincare-type inequality.
"""

from __future__ import annotations

import numpy as np

from .grid import GridField, GridSpec
from .harmonics import (
    SQRT4PI,
    SpectralField,
    analyze,
    from_coeff_dict,
    inner_l2,
    synthesize_gradients,
)

# sin(theta) = sqrt(4 pi / 3) Y_1^0
SINTHETA_C10 = float(np.sqrt(4.0 * np.pi / 3.0))


def _require_zero_mean(c: SpectralField, what: str) -> None:
    if c.coeffs[0, 0] != 0.0:
        raise ValueError(f"{what} requires a zero-mean field (c_0^0 = 0)")


def laplacian(c: SpectralField) -> SpectralField:
    """Laplace-Beltrami operator: c_j^m -> -j(j+1) c_j^m."""
    j = np.arange(c.L + 1)
    return SpectralField(L=c.L, coeffs=c.coeffs * (-j * (j + 1.0))[None, :])


def green(c: SpectralField) -> SpectralField:
    """Inverse of -Laplacian on zero-mean fields: c_j^m -> c_j^m / (j(j+1))."""
    _require_zero_mean(c, "green")
    j = np.arange(c.L + 1)
    scale = np.zeros(c.L + 1)
    scale[1:] = 1.0 / (j[1:] * (j[1:] + 1.0))
    return SpectralField(L=c.L, coeffs=c.coeffs * scale[None, :])


def project_band(c: SpectralField, j: int, complement: bool = False) -> SpectralField:
    """Orthogonal projection onto degrees <= j (or > j when complement)."""
    if not (1 <= j <= c.L):
        raise ValueError(f"projection degree j={j} outside [1, {c.L}]")
    keep = np.arange(c.L + 1) <= j
    if complement:
        keep = ~keep
    return SpectralField(L=c.L, coeffs=c.coeffs * keep[None, :])


def stream_function(zeta: SpectralField, omega: float) -> SpectralField:
    """psi = omega sin(theta) - G(zeta)."""
    _require_zero_mean(zeta, "stream_function")
    psi = -green(zeta).coeffs
    psi[0, 1] += omega * SINTHETA_C10
    return SpectralField(L=zeta.L, coeffs=psi)


def velocity(zeta: SpectralField, omega: float, spec: GridSpec | None = None):
    """Velocity grids (u_phi, u_theta) of the flow driven by zeta.

    u_phi = -d_theta psi, u_theta = (1/cos theta) d_phi psi with
    psi = omega sin(theta) - G(zeta).
    """
    psi = stream_function(zeta, omega)
    return velocity_from_stream(psi, spec)


def velocity_from_stream(psi: SpectralField, spec: GridSpec | None = None):
    """Velocity grids of the rotated gradient of an arbitrary stream psi."""
    if spec is None:
        from .harmonics import default_grid

        spec = default_grid(psi.L)
    dpsi_phi, dpsi_th = synthesize_gradients((psi,), spec)[:, 0]
    u_phi = GridField(values=-dpsi_th, spec=spec)
    u_theta = GridField(values=dpsi_phi / spec.cos_theta[:, None], spec=spec)
    return u_phi, u_theta


def advection_tendency(
    zeta: SpectralField,
    omega: float,
    spec: GridSpec | None = None,
    stream: SpectralField | None = None,
) -> SpectralField:
    """Tendency d_t zeta = -J grad(psi) . grad(zeta).

    psi = omega sin(theta) - G(zeta) in coupled mode, or the prescribed
    `stream` when given.  The Jacobian is assembled on the grid as
    (1/cos theta)(d_phi psi d_theta zeta - d_theta psi d_phi zeta) from
    the four gradient grids of one `synthesize_gradients` call, and
    analyzed back to degree <= L (`jacobian_tendency`).
    """
    _require_zero_mean(zeta, "advection_tendency")
    if spec is None:
        from .harmonics import default_grid

        spec = default_grid(zeta.L)
    psi = stream if stream is not None else stream_function(zeta, omega)
    grads = synthesize_gradients((psi, zeta), spec)
    return jacobian_tendency(grads[:, 0], grads[:, 1], spec, zeta.L)


def jacobian_tendency(dpsi, dzeta, spec: GridSpec, L: int) -> SpectralField:
    """-J(psi, zeta) analyzed to degree <= L, from the gradient grids.

    dpsi and dzeta are (d/dphi, d/dtheta) grid pairs; the Jacobian is
    (1/cos theta)(d_phi psi d_theta zeta - d_theta psi d_phi zeta).  The
    mean of the result is set to zero: transport preserves it, so a
    nonzero c_0^0 is quadrature dust.
    """
    (dpsi_phi, dpsi_th), (dz_phi, dz_th) = dpsi, dzeta
    minus_jac = (dpsi_th * dz_phi - dpsi_phi * dz_th) / spec.cos_theta[:, None]
    C = analyze(GridField(values=minus_jac, spec=spec), L).coeffs
    C[0, 0] = 0.0
    return SpectralField(L=L, coeffs=C)


def poincare_gap(f: SpectralField, j: int) -> float:
    """Slack of the spectral-gap inequality beyond degree j.

    Returns ||P_j^perp f||^2 / ((j+1)(j+2)) - <P_j^perp f, G P_j^perp f>;
    nonnegative for every zero-mean f, and zero exactly when f lives in
    degrees <= j+1.
    """
    _require_zero_mean(f, "poincare_gap")
    deg = np.arange(f.L + 1)
    energy = np.abs(f.coeffs) ** 2
    energy[1:] *= 2.0  # both +/-m
    per_degree = energy.sum(axis=0)
    gap = 0.0
    for k in range(j + 1, f.L + 1):
        # the k = j+1 term is an exact floating-point zero (equality case)
        gap += per_degree[k] * (1.0 / ((j + 1.0) * (j + 2.0)) - 1.0 / (k * (k + 1.0)))
    return float(gap)


def sin_theta_field(L: int, scale: float = 1.0) -> SpectralField:
    """The zonal field scale * sin(theta) as a SpectralField."""
    return from_coeff_dict(L, {(1, 0): scale * SINTHETA_C10})
