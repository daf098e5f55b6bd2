"""Spectral differential operators on the sphere.

The inverse of the Laplace-Beltrami operator on zero-mean fields (the
Green operator), band projections, the stream function of an
absolute-vorticity field, the advection tendency of the vorticity
equation, and the spectral-gap quantity behind the Poincare-type
inequality.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import GridSpec, _read_only
from .harmonics import (SpectralField, _analyze, _field, _synth_values, _work_views,
                        default_grid, from_coeff_dict)

# sin(theta) = sqrt(4 pi / 3) Y_1^0
SINTHETA_C10 = float(np.sqrt(4.0 * np.pi / 3.0))


def _require_zero_mean(c: SpectralField, what: str) -> None:
    if c.coeffs[0, 0] != 0.0:
        raise ValueError(f"{what} requires a zero-mean field (c_0^0 = 0)")


@lru_cache(maxsize=8)
def _green_scale(L: int) -> np.ndarray:
    """1/(j(j+1)) per degree j <= L, 0 for j = 0: `green`'s multiplier, shared, so read-only."""
    j = np.arange(1, L + 1)
    return _read_only(np.concatenate(([0.0], 1.0 / (j * (j + 1.0)))))


def green(c: SpectralField) -> SpectralField:
    """Inverse of -Laplacian on zero-mean fields: c_j^m -> c_j^m / (j(j+1))."""
    _require_zero_mean(c, "green")
    return _field(c.L, c.coeffs * _green_scale(c.L))


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
    return _field(zeta.L, _stream_coeffs(zeta.coeffs, omega))


def _stream_coeffs(C: np.ndarray, omega: float) -> np.ndarray:
    """The coefficients of `stream_function` from zeta's coefficients C, fresh."""
    psi = -(C * _green_scale(len(C) - 1))
    psi[0, 1] += omega * SINTHETA_C10
    return psi


def advection_tendency(zeta: SpectralField, omega: float,
                       spec: GridSpec | None = None) -> SpectralField:
    """Coupled tendency d_t zeta = -J grad(psi) . grad(zeta).

    psi = omega sin(theta) - G(zeta) is zeta's own stream function.  The
    stages pass arrays: psi's coefficients, the d/dphi and d/dtheta grids
    of psi and zeta from one `_synth_values` contraction (in the grid's
    work region B), and the Jacobian analyzed to degree <= L
    (`_jacobian_coeffs`).  The operations and their order are those of
    `stream_function`, `synthesize_gradients` and `analyze` composed, so
    the bits are too.
    """
    _require_zero_mean(zeta, "advection_tendency")
    if spec is None:
        spec = default_grid(zeta.L)
    C = zeta.coeffs
    grads = _synth_values((_stream_coeffs(C, omega), C), spec, ("dphi", "dtheta"))
    return _field(zeta.L, _jacobian_coeffs(grads[:, 0], grads[:, 1], spec, zeta.L))


def _jacobian_coeffs(dpsi, dzeta, spec: GridSpec, L: int) -> np.ndarray:
    """The coefficients C[m, j] of -J(psi, zeta) analyzed to degree <= L, from the gradient grids.

    dpsi and dzeta are (d/dphi, d/dtheta) grid pairs; the Jacobian is
    (1/cos theta)(d_phi psi d_theta zeta - d_theta psi d_phi zeta).  The
    mean of the result is set to zero: transport preserves it, so a
    nonzero c_0^0 is quadrature dust.  The Jacobian is formed in the
    grid's work region A, so the gradient grids may lie in region B.
    """
    (dpsi_phi, dpsi_th), (dz_phi, dz_th) = dpsi, dzeta
    minus_jac, term, cos_theta = _work_views(spec, "jacobian", _jacobian_grids)
    np.multiply(dpsi_th, dz_phi, out=minus_jac)
    np.multiply(dpsi_phi, dz_th, out=term)
    np.subtract(minus_jac, term, out=minus_jac)
    np.divide(minus_jac, cos_theta, out=minus_jac)
    C = _analyze(minus_jac, spec, L)
    C[0, 0] = 0.0
    return C


def _jacobian_grids(spec: GridSpec, work, key) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Jacobian and its second product term, two grids of work region A, and cos(theta) as a column."""
    n = spec.n_lat * spec.n_lon
    a, _ = work.regions(2 * n, 0)
    return a[:n].reshape(spec.n_lat, -1), a[n : 2 * n].reshape(spec.n_lat, -1), spec.cos_theta[:, None]


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
