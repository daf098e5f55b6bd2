"""Spectral differential operators on the sphere.

The inverse of the Laplace-Beltrami operator on zero-mean fields (the
Green operator), band projections, the stream function of an
absolute-vorticity field, the advection tendency of the vorticity
equation, and the spectral-gap quantity behind the Poincare-type
inequality.
"""

from __future__ import annotations

import numpy as np

from .grid import GridField, GridSpec
from .harmonics import SpectralField, _field, _gradient_grids, _work_views, analyze, from_coeff_dict

# sin(theta) = sqrt(4 pi / 3) Y_1^0
SINTHETA_C10 = float(np.sqrt(4.0 * np.pi / 3.0))


def _require_zero_mean(c: SpectralField, what: str) -> None:
    if c.coeffs[0, 0] != 0.0:
        raise ValueError(f"{what} requires a zero-mean field (c_0^0 = 0)")


def green(c: SpectralField) -> SpectralField:
    """Inverse of -Laplacian on zero-mean fields: c_j^m -> c_j^m / (j(j+1))."""
    _require_zero_mean(c, "green")
    j = np.arange(c.L + 1)
    scale = np.zeros(c.L + 1)
    scale[1:] = 1.0 / (j[1:] * (j[1:] + 1.0))
    return _field(c.L, c.coeffs * scale[None, :])


def project_band(c: SpectralField, j: int, complement: bool = False) -> SpectralField:
    """Orthogonal projection onto degrees <= j (or > j when complement)."""
    if not (1 <= j <= c.L):
        raise ValueError(f"projection degree j={j} outside [1, {c.L}]")
    keep = np.arange(c.L + 1) <= j
    if complement:
        keep = ~keep
    return _field(c.L, c.coeffs * keep[None, :])


def stream_function(zeta: SpectralField, omega: float) -> SpectralField:
    """psi = omega sin(theta) - G(zeta)."""
    _require_zero_mean(zeta, "stream_function")
    psi = -green(zeta).coeffs
    psi[0, 1] += omega * SINTHETA_C10
    return _field(zeta.L, psi)


def advection_tendency(zeta: SpectralField, omega: float,
                       spec: GridSpec | None = None) -> SpectralField:
    """Coupled tendency d_t zeta = -J grad(psi) . grad(zeta).

    psi = omega sin(theta) - G(zeta) is zeta's own stream function; a
    prescribed stream goes to `jacobian_tendency` directly
    (`Stepper.tendency`).  The Jacobian is assembled on the grid as
    (1/cos theta)(d_phi psi d_theta zeta - d_theta psi d_phi zeta) from
    the four gradient grids of one `synthesize_gradients` contraction,
    read in the grid's work region, and analyzed back to degree <= L
    (`jacobian_tendency`).
    """
    _require_zero_mean(zeta, "advection_tendency")
    if spec is None:
        from .harmonics import default_grid

        spec = default_grid(zeta.L)
    grads = _gradient_grids((stream_function(zeta, omega), zeta), spec)
    return jacobian_tendency(grads[:, 0], grads[:, 1], spec, zeta.L)


def jacobian_tendency(dpsi, dzeta, spec: GridSpec, L: int) -> SpectralField:
    """-J(psi, zeta) analyzed to degree <= L, from the gradient grids.

    dpsi and dzeta are (d/dphi, d/dtheta) grid pairs; the Jacobian is
    (1/cos theta)(d_phi psi d_theta zeta - d_theta psi d_phi zeta).  The
    mean of the result is set to zero: transport preserves it, so a
    nonzero c_0^0 is quadrature dust.  The Jacobian is formed in the
    grid's work region A, so the gradient grids may lie in region B.
    """
    (dpsi_phi, dpsi_th), (dz_phi, dz_th) = dpsi, dzeta
    minus_jac, term = _work_views(spec, "jacobian", _jacobian_grids)
    np.multiply(dpsi_th, dz_phi, out=minus_jac)
    np.multiply(dpsi_phi, dz_th, out=term)
    np.subtract(minus_jac, term, out=minus_jac)
    np.divide(minus_jac, spec.cos_theta[:, None], out=minus_jac)
    C = analyze(GridField(values=minus_jac, spec=spec), L).coeffs
    C[0, 0] = 0.0
    return _field(L, C)


def _jacobian_grids(spec: GridSpec, work, key) -> tuple[np.ndarray, np.ndarray]:
    """The Jacobian and its second product term, two grids of work region A."""
    n = spec.n_lat * spec.n_lon
    a, _ = work.regions(2 * n, 0)
    return a[:n].reshape(spec.n_lat, -1), a[n : 2 * n].reshape(spec.n_lat, -1)


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
