"""L^p distances between fields and distances to symmetry orbits.

dist_polar_orbit minimizes over rotations about the polar axis (optionally
composed with the longitude reflection); dist_so3_orbit minimizes over all
of SO(3).  Both run `_orbit_search` from start rotations that carry their
correlation <f, D(R) t>.  The correlation only locates the optimum: its
expanded form cancels catastrophically near the orbit, so the distance is
measured at the optimal orbit member, and is therefore also a certified
upper bound; at p = 2 by Parseval (lp_distance), with no grid.  For
p != 2, Nelder-Mead refines lp_distance, integrated on a grid.

The polar correlation is a trigonometric polynomial in one angle whose
critical points are the angles of the roots of one polynomial of degree
2M, M the largest order that f and the target share (`_polar_starts`).
So the p = 2 polar distance is exact, with no sampling: for the alpha !=
0 RH wave of criterion 8a, whose target has orders <= 2, from a quartic.
The SO(3) correlation is sampled with one inverse FFT on 4(J+1) Euler
angles per axis, J the top degree of the target, and its peaks are
Newton-polished (`_so3_starts`), so that search is global up to the
sampling resolution.  At p = 2 a target zero outside degrees 0 and 2, as
the alpha = 0 RH wave is, needs no search: `_so3_degree2_optimum` takes
the optimum exactly from two 3x3 eigendecompositions (von Neumann's trace
inequality; Mirsky, Monatsh. Math. 79 (1975)).
"""

from __future__ import annotations

import numpy as np

from .grid import build_grid, integrate
from .harmonics import SpectralField, _field, e2_part, norm_l2, synthesize, top_degree
from .rotations import (angular_momentum, degree_vector, euler_to_matrix, jy_eigvecs, matrix_to_euler,
                        reflect_longitude, rotate_polar, rotate_wigner, wigner_D)

POLISH = 8            # correlation maxima refined: Newton-polished, or starting p != 2
NEWTON_MAXITER = 30
TIE_RTOL = 1e-10      # correlations this close (times ||f|| ||t||) are all measured
LP_MAXITER = 120      # Nelder-Mead iterations of the p != 2 refinement, per start
# Bytes the SO(3) correlation samples may take: about 24 n^3, n = 4(J+1),
# for the FFT's complex array and the real samples, then for the samples
# and two running maxima, so target degrees J <= 87.
SO3_SEARCH_BYTES = 2**30


def check_p(p: float) -> None:
    """Raise ValueError unless 1 < p < inf; NaN fails too."""
    if not 1.0 < p < np.inf:
        raise ValueError(f"p must lie in (1, inf), got {p:g}")


def lp_distance(f: SpectralField, g: SpectralField, p: float) -> float:
    """(int |f - g|^p d_sigma)^(1/p).

    p = 2 is norm_l2(f - g) by Parseval, with no grid.  Any other p is
    integrated on a 4(L+1) x 4(L+1) grid.  Both read f - g as a valid
    field, which it is since `SpectralField` checked f and g.
    """
    check_p(p)
    if f.L != g.L:
        raise ValueError("fields must share a truncation degree")
    diff = _field(f.L, f.coeffs - g.coeffs)
    if p == 2.0:
        return norm_l2(diff)
    spec = build_grid(f.L, n_lat=4 * (f.L + 1), n_lon=4 * (f.L + 1))
    return float(integrate(np.abs(synthesize(diff, spec)) ** p, spec) ** (1.0 / p))


def _periodic_local_maxima(c: np.ndarray) -> np.ndarray:
    """Flat indices of the samples that no periodic neighbour exceeds, best first.

    The running maximum is taken in place, one shift at a time, so that
    besides c it holds itself and one rolled copy.
    """
    M = c.copy()
    for axis in range(c.ndim):
        for shift in (1, -1):
            np.maximum(M, np.roll(M, shift, axis), out=M)
    peaks = np.flatnonzero(c.ravel() >= M.ravel())
    return peaks[np.argsort(-c.ravel()[peaks], kind="stable")]


def _rotation_exp(w: np.ndarray) -> np.ndarray:
    """exp([w]x): the rotation by |w| about w (Rodrigues)."""
    t = float(np.linalg.norm(w))
    if t == 0.0:
        return np.eye(3)
    K = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    return np.eye(3) + (np.sin(t) / t) * K + ((1.0 - np.cos(t)) / t ** 2) * (K @ K)


def _polar_angle(R: np.ndarray) -> float:
    """The beta in [0, 2 pi) of a z-rotation R: D(R) t = rotate_polar(t, beta)."""
    return float(np.arctan2(-R[1, 0], R[0, 0]) % (2.0 * np.pi))


def _polar_starts(f: SpectralField, target: SpectralField) -> list[tuple[float, np.ndarray]]:
    """(c, R) at every critical point of c(beta) = <f, rotate_polar(target, beta)>.

    c(beta) = Re[s_0 + 2 sum_{m>=1} s_m e^{-i m beta}], s_m = sum_j f_j^m
    conj(t_j^m).  With z = e^{i beta}, c'(beta) z^M = sum_{m=1}^M i m
    (conj(s_m) z^{M+m} - s_m z^{M-m}); the angles of its 2M roots contain
    every critical point (a root off the unit circle only adds a
    candidate).  M is the largest m with m |s_m| above eps times the
    largest: a smaller end coefficient, zero or not, would swamp np.roots'
    companion matrix.  A constant c starts at beta = 0.
    """
    s = (f.coeffs * target.coeffs.conj()).sum(axis=1)
    weight = np.arange(1, len(s)) * np.abs(s[1:])
    orders = np.flatnonzero(weight > np.finfo(float).eps * weight.max(initial=0.0)) + 1
    if not orders.size:
        return [(float(s[0].real), np.eye(3))]
    M = orders[-1]
    m = np.arange(1, M + 1)
    poly = np.zeros(2 * M + 1, dtype=complex)  # highest power first
    poly[M - m] = 1j * m * s[m].conj()
    poly[M + m] = -1j * m * s[m]
    beta = np.angle(np.roots(poly))
    c = s[0].real + 2.0 * (np.exp(-1j * np.outer(beta, m)) * s[m]).sum(axis=1).real
    return [(float(c_k), euler_to_matrix((-b, 0.0, 0.0))) for c_k, b in zip(c, beta)]


def _correlation_samples(fv, tv, n: int) -> np.ndarray:
    """c(alpha, beta, gamma) = <f, D(alpha, beta, gamma) t> on an n^3 grid.

    With d^j(beta) = V diag(e^{-i lam beta}) V^H the correlation is the
    trigonometric polynomial sum C[m, lam, k] e^{i(m alpha + lam beta +
    k gamma)}, C[m, lam, k] = sum_j f_j^m conj(V_{m lam}) V_{k lam}
    conj(t_j^k), of degree J in each angle; one inverse FFT samples it at
    the angles 2 pi (0..n-1)/n, in place: the samples peak at 24 n^3
    bytes, the complex array and the real part's copy.
    """
    A = np.zeros((n, n, n), dtype=complex)
    for j, (f_j, t_j) in enumerate(zip(fv, tv)):
        V = jy_eigvecs(j)
        idx = np.arange(-j, j + 1) % n
        A[np.ix_(idx, idx, idx)] += np.einsum(
            "ml,kl->mlk", f_j[:, None] * V.conj(), V * t_j.conj()[:, None])
    np.fft.ifftn(A, out=A)
    A *= n ** 3
    return A.real.copy()


def _correlation_derivatives(fv, tv, R: np.ndarray):
    """c = <f, D(R) t>, its gradient and Hessian in w at R(w) = exp([w]x) R.

    D(exp([w]x)) = exp(-i w.J), so the gradient is <f, -i J_a D(R) t> and
    the Hessian <f, -1/2 {J_a, J_b} D(R) t>.
    """
    euler = matrix_to_euler(R)
    c, g, H = 0.0, np.zeros(3), np.zeros((3, 3))
    for j, (f_j, t_j) in enumerate(zip(fv, tv)):
        J = angular_momentum(j)
        u = wigner_D(j, euler) @ t_j
        Ju = J @ u                                # J_a u, shape (3, 2j+1)
        JJu = np.einsum("amn,bn->abm", J, Ju)     # J_a J_b u
        fc = f_j.conj()
        c += float(np.real(fc @ u))
        g += np.imag(Ju @ fc)
        H -= np.real(JJu @ fc)
    return c, g, 0.5 * (H + H.T)


def _newton_polish(fv, tv, R: np.ndarray):
    """Maximize c(R) = <f, D(R) t> by Newton steps R <- exp([w]x) R.

    The local coordinates w are smooth at every R, so the polish does not
    stall at the Euler gimbal lock (beta = 0, pi).  Directions without
    negative curvature take no step, and a step is at most 0.5 rad.
    Returns (c, R) after the last step, or the start if c dropped.
    """
    c0 = None
    for _ in range(NEWTON_MAXITER):
        c, g, H = _correlation_derivatives(fv, tv, R)
        if c0 is None:
            c0, R0 = c, R
        lam, Q = np.linalg.eigh(H)
        concave = lam < -1e-12 * np.abs(lam).max()
        w = -Q[:, concave] @ ((Q[:, concave].T @ g) / lam[concave])
        step = float(np.linalg.norm(w))
        R = _rotation_exp(w * min(1.0, 0.5 / step)) @ R if step > 0.0 else R
        if step < 1e-10:  # Newton converges quadratically: R is done
            break
    return (c, R) if c >= c0 - 1e-12 * abs(c0) else (c0, R0)


def _so3_starts(f: SpectralField, target: SpectralField) -> list[tuple[float, np.ndarray]]:
    """(c, R) at the best POLISH maxima of <f, D(R) t>, sampled by `_correlation_samples`
    at the Euler angles 2 pi (a, b, g)/n, n = 4(J+1), and Newton-polished.

    A J whose samples would exceed SO3_SEARCH_BYTES raises ValueError first."""
    J = top_degree(target)
    n = 4 * (J + 1)
    if 24 * n**3 > SO3_SEARCH_BYTES:
        raise ValueError(f"the SO(3) search at target degree J = {J} samples n^3 Euler angles, "
                         f"n = 4(J+1) = {n}, in about {24 * n**3} bytes, above SO3_SEARCH_BYTES "
                         f"= {SO3_SEARCH_BYTES}")
    fv = [degree_vector(f, j) for j in range(J + 1)]
    tv = [degree_vector(target, j) for j in range(J + 1)]
    samples = _correlation_samples(fv, tv, n)
    seeds = _periodic_local_maxima(samples)[:POLISH]
    return [_newton_polish(fv, tv, euler_to_matrix(2.0 * np.pi * np.array(abg) / n))
            for abg in zip(*np.unravel_index(seeds, samples.shape))]


def _orbit_search(f: SpectralField, target: SpectralField, p: float, starts, axes: np.ndarray):
    """min over R of lp_distance(f, D(R) target, p) from `starts`, (c, R) pairs
    with c = <f, D(R) t>; returns (d, R).

    axes is the z axis alone for the polar group, whose members are
    rotate_polar's exact phases, or all three for SO(3) (rotate_wigner).
    At p = 2 the distance is measured at each distinct R that ties for the
    largest c.  For p != 2, Nelder-Mead over the axes' local coordinates
    starts from the POLISH distinct R of largest c and from the sampled
    minima of lp_distance on the 4(J+1)-point circle about each axis
    through the best one, J the top degree of target.  A correlation that
    overflows a float raises FloatingPointError.
    """
    distinct: list[tuple[float, np.ndarray]] = []
    for c, R in sorted(starts, key=lambda cR: -cR[0]):
        if all(np.abs(R - other).max() > 1e-8 for _, other in distinct):
            distinct.append((c, R))

    def dist(R):
        if len(axes) == 1:
            return lp_distance(f, rotate_polar(target, _polar_angle(R)), p)
        return lp_distance(f, rotate_wigner(target, matrix_to_euler(R)), p)

    best = distinct[0][0] if distinct else np.nan
    scale = norm_l2(f) * norm_l2(target)
    top = best - TIE_RTOL * scale
    if np.isnan(top):  # ||f|| ||t|| overflowed: no start is left, or none can tie
        raise FloatingPointError(f"non-finite orbit correlation: largest <f, D(R) t> = {best:g}, "
                                 f"||f|| ||t|| = {scale:g}")
    if p == 2.0:
        return min(((dist(R), R) for c, R in distinct if c >= top),
                   key=lambda dR: dR[0])

    # scipy.optimize costs ~0.5 s to import and only p != 2 needs it
    from scipy import optimize

    # An L^p minimum can sit on a shoulder of the L^2 distance, in no
    # correlation basin.  So lp_distance is also sampled at n angles on the
    # circle about each axis through the best candidate (for the polar
    # orbit that circle is the whole group), and its sampled minima start
    # Nelder-Mead as well.
    n = 4 * (top_degree(target) + 1)
    starts = [R for _, R in distinct[:POLISH]]
    for a in axes:
        circle = [_rotation_exp(2.0 * np.pi * k / n * a) @ distinct[0][1] for k in range(n)]
        on_circle = np.array([dist(R) for R in circle])
        starts += [circle[k] for k in _periodic_local_maxima(-on_circle)[:POLISH]]
    runs = [(optimize.minimize(lambda x: dist(_rotation_exp(axes.T @ x) @ R), np.zeros(len(axes)),
                               method="Nelder-Mead",
                               options={"maxiter": LP_MAXITER, "xatol": 1e-10, "fatol": 1e-14}), R)
            for R in starts]
    res, R = min(runs, key=lambda run: run[0].fun)
    return float(res.fun), _rotation_exp(axes.T @ res.x) @ R


def dist_polar_orbit(f: SpectralField, target: SpectralField, p: float = 2.0,
                     include_reflection: bool = False):
    """Distance from f to the polar-rotation orbit of target.

    Returns (distance, beta_star), the orbit member being
    rotate_polar(target, beta_star).  `_orbit_search` starts along z from
    the exact critical points of the correlation (`_polar_starts`), so the
    p = 2 distance is exact.  With include_reflection the orbit also
    contains reflect_longitude compositions, and beta_star refers to the
    winning family.
    """
    if f.L != target.L:
        raise ValueError("fields must share a truncation degree")
    z = np.eye(3)[2:]
    d, R = _orbit_search(f, target, p, _polar_starts(f, target), z)
    if include_reflection:
        mirrored = reflect_longitude(target)
        dr, Rr = _orbit_search(f, mirrored, p, _polar_starts(f, mirrored), z)
        if dr < d:
            d, R = dr, Rr
    return d, _polar_angle(R)


def _degrees_0_and_2(target: SpectralField) -> bool:
    """Whether target (L >= 2) is exactly zero outside degrees 0 and 2."""
    C = target.coeffs
    return target.L >= 2 and not (C[:, 1].any() or C[:, 3:].any())


def _so3_degree2_optimum(f: SpectralField, target: SpectralField) -> np.ndarray:
    """The rotation R maximizing <f, D(R) t> for t in degrees 0 and 2.

    The degree-0 parts do not rotate and the other degrees of f are
    orthogonal to D(R) t, so the correlation is the constant part plus
    (8 pi / 15) tr(A R B R^T), with A and B the matrices (`E2Coeffs.matrix`)
    of the degree-2 parts of f and t.  By von Neumann's trace inequality
    its maximum over O(3) is sum_i lam_i(A) lam_i(B), both sorted the same
    way, attained at R = U_A U_B^T from the eigenvectors; -R gives the
    same R B R^T, so one of the two is a proper rotation.
    """
    _, U = np.linalg.eigh(e2_part(f).matrix())
    _, V = np.linalg.eigh(e2_part(target).matrix())
    R = U @ V.T
    return -R if np.linalg.det(R) < 0.0 else R


def dist_so3_orbit(f: SpectralField, target: SpectralField, p: float = 2.0):
    """Distance from f to the SO(3) orbit of target; returns (d, euler).

    The orbit member is rotate_wigner(target, euler), and d is
    lp_distance to it.  At p = 2, for a target with no content outside
    degrees 0 and 2 (such as the alpha = 0 RH wave of the SO(3)
    stability experiment), the optimal rotation is exact and closed-form:
    `_so3_degree2_optimum` aligns the eigenframes of the two degree-2
    quadratic forms.  Every other case runs `_orbit_search` on all of
    SO(3) from `_so3_starts`.
    """
    if f.L != target.L:
        raise ValueError("fields must share a truncation degree")
    if p == 2.0 and _degrees_0_and_2(target):
        euler = matrix_to_euler(_so3_degree2_optimum(f, target))
        return lp_distance(f, rotate_wigner(target, euler), p), euler
    d, R = _orbit_search(f, target, p, _so3_starts(f, target), np.eye(3))
    return d, matrix_to_euler(R)
