"""Symmetry-group actions on spectral fields.

Polar-axis rotations act diagonally on the coefficients and longitude
reflection conjugates them.  Full SO(3) rotations act through the
per-degree Wigner matrices D^j(R) (`rotate_wigner`): degree j of the
rotated field has coefficients D^j(R) c_j, with c_j the full vector
(c_j^{-j}, ..., c_j^j).  All three are exact spectral maps and need no
grid; the orbit distances of `orbit_metrics` use them.  Matrices are
indexed by m + j, and D^j(exp(t [n]x)) = exp(-i t n.J) for the
angular-momentum generators J = (J_x, J_y, J_z) of `angular_momentum`.

`rotate_so3` computes the same rotation independently, by resampling
the field at the rotated nodes of a grid; it is exact on bandlimited
fields up to transform roundoff, and serves as the oracle of
`rotate_wigner`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import build_grid
from .harmonics import SpectralField, _field, analyze, eval_point


def rotate_polar(c: SpectralField, beta: float) -> SpectralField:
    """Coefficients of f(phi + beta, theta): c_j^m -> e^{i m beta} c_j^m."""
    m = np.arange(c.L + 1)
    return _field(c.L, c.coeffs * np.exp(1j * m * beta)[:, None])


def reflect_longitude(c: SpectralField) -> SpectralField:
    """Coefficients of f(-phi, theta): c_j^m -> conj(c_j^m).

    Y_j^m(-phi, theta) = conj(Y_j^m(phi, theta)) and f is real, so the
    reflection is exact coefficient conjugation and needs no grid.
    """
    return _field(c.L, np.conj(c.coeffs))


def euler_to_matrix(euler: tuple[float, float, float]) -> np.ndarray:
    """Rotation matrix R = Rz(alpha) Ry(beta) Rz(gamma) (Z-Y-Z convention)."""
    al, be, ga = euler

    def rz(t):
        return np.array([
            [np.cos(t), -np.sin(t), 0.0],
            [np.sin(t), np.cos(t), 0.0],
            [0.0, 0.0, 1.0],
        ])

    def ry(t):
        return np.array([
            [np.cos(t), 0.0, np.sin(t)],
            [0.0, 1.0, 0.0],
            [-np.sin(t), 0.0, np.cos(t)],
        ])

    return rz(al) @ ry(be) @ rz(ga)


def matrix_to_euler(R: np.ndarray) -> tuple[float, float, float]:
    """Z-Y-Z Euler angles (alpha, beta, gamma) of a proper rotation matrix.

    R depends on alpha and gamma through sin(beta) (third row and column),
    on alpha + gamma through 1 + cos(beta) and on alpha - gamma through
    1 - cos(beta) (upper 2x2 block).  Near beta = 0 the sum is read from
    the block, near pi the difference; the other combination comes from
    the third row and column.  So euler_to_matrix reproduces R to roundoff
    also at and near the gimbal-lock angles, where the individual angles
    are not determined.
    """
    beta = float(np.arctan2(np.hypot(R[2, 0], R[2, 1]), R[2, 2]))
    a0 = np.arctan2(R[1, 2], R[0, 2])
    g0 = np.arctan2(R[2, 1], -R[2, 0])
    if R[2, 2] >= 0.0:
        s, d = np.arctan2(R[1, 0] - R[0, 1], R[0, 0] + R[1, 1]), a0 - g0
    else:
        s, d = a0 + g0, np.arctan2(-R[1, 0] - R[0, 1], R[1, 1] - R[0, 0])
    alpha, gamma = 0.5 * (s + d), 0.5 * (s - d)
    # halving is ambiguous by pi in both angles, which would flip beta
    if np.cos(alpha - a0) < 0.0:
        alpha, gamma = alpha + np.pi, gamma + np.pi
    return (float(alpha), beta, float(gamma))


@lru_cache(maxsize=None)
def angular_momentum(j: int) -> np.ndarray:
    """Generators J[a] (a = x, y, z) on degree j, indexed by m + j.

    Condon-Shortley ladder: J_+ Y_j^m = sqrt((j - m)(j + m + 1)) Y_j^{m+1},
    J_x = (J_+ + J_-)/2, J_y = (J_+ - J_-)/(2i), J_z = diag(m).  The
    cached array is shared, so it is read-only.
    """
    m = np.arange(-j, j)
    up = np.diag(np.sqrt((j - m) * (j + m + 1.0)), k=-1).astype(complex)
    J = np.stack((0.5 * (up + up.T), -0.5j * (up - up.T),
                  np.diag(np.arange(-j, j + 1)).astype(complex)))
    J.setflags(write=False)
    return J


@lru_cache(maxsize=None)
def jy_eigvecs(j: int) -> np.ndarray:
    """Unitary V with J_y = V diag(-j, ..., j) V^H (read-only, cached per j)."""
    _, V = np.linalg.eigh(angular_momentum(j)[1])
    V.setflags(write=False)
    return V


def wigner_d(j: int, beta: float) -> np.ndarray:
    """Real Wigner matrix d^j(beta) = exp(-i beta J_y) = V diag(e^{-i lam beta}) V^H.

    At beta = 0, where every rotation of the polar orbit sits, it is the
    exact identity rather than V V^H, which is off by roundoff.
    """
    if beta == 0.0:
        return np.eye(2 * j + 1)
    V = jy_eigvecs(j)
    lam = np.arange(-j, j + 1)
    return ((V * np.exp(-1j * lam * beta)) @ V.conj().T).real


def wigner_D(j: int, euler: tuple[float, float, float]) -> np.ndarray:
    """D^j_{mn}(alpha, beta, gamma) = e^{-i m alpha} d^j_{mn}(beta) e^{-i n gamma}."""
    al, be, ga = euler
    ph = np.exp(-1j * np.arange(-j, j + 1) * np.array([[al], [ga]]))
    return ph[0][:, None] * wigner_d(j, be) * ph[1][None, :]


def degree_vector(c: SpectralField, j: int) -> np.ndarray:
    """Full coefficient vector (c_j^{-j}, ..., c_j^j) of degree j."""
    pos = c.coeffs[: j + 1, j]
    neg = (-1.0) ** np.arange(j, 0, -1) * np.conj(pos[:0:-1])
    return np.concatenate((neg, pos))


# TestWignerRotation checks it against rotate_so3
def rotate_wigner(c: SpectralField, euler: tuple[float, float, float]) -> SpectralField:
    """rotate_so3 as an exact spectral map: c_j -> D^j(euler) c_j per degree.

    A degree whose coefficients are all zero stays zero and is skipped.
    """
    C = np.zeros_like(c.coeffs, dtype=complex)
    for j in np.flatnonzero(np.any(c.coeffs != 0.0, axis=0)):
        C[: j + 1, j] = (wigner_D(j, euler) @ degree_vector(c, j))[j:]
    C[0] = C[0].real
    return _field(c.L, C)


# No experiment calls rotate_so3 or, through it, eval_point: they stay as
# the independent oracle of rotate_wigner (TestWignerRotation) and of the
# tests that build rotated fields, and the benchmark's tracer binds both
# names.
def rotate_so3(c: SpectralField, euler: tuple[float, float, float]) -> SpectralField:
    """Active rotation of the field's argument: (Rf)(x) = f(R^{-1} x).

    R is the Z-Y-Z Euler rotation of `euler`; the output coefficients are
    obtained by evaluating f at the pre-image of every node of a
    2(L+1) x 4(L+1) grid and re-analyzing.  rotate_so3(c, (beta, 0, 0))
    equals rotate_polar(c, -beta).
    """
    # Analysis of a degree-L field needs only L+1 x 2L+1 nodes; the
    # benchmark's point count is taken on this grid.
    spec = build_grid(c.L, n_lat=2 * (c.L + 1), n_lon=4 * (c.L + 1))
    R = euler_to_matrix(euler)
    mu = spec.mu_nodes
    ct = spec.cos_theta
    phi = spec.phi
    # unit vectors of all grid nodes, shape (3, n_lat, n_lon)
    X = np.empty((3, spec.n_lat, spec.n_lon))
    X[0] = ct[:, None] * np.cos(phi)[None, :]
    X[1] = ct[:, None] * np.sin(phi)[None, :]
    X[2] = mu[:, None]
    Y = np.einsum("ab,bkn->akn", R.T, X)  # R^{-1} x
    theta_p = np.arcsin(np.clip(Y[2], -1.0, 1.0))
    phi_p = np.arctan2(Y[1], Y[0])
    vals = eval_point(c, phi_p, theta_p)
    return analyze(vals, spec)
