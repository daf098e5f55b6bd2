"""L^p distances between fields and distances to symmetry orbits.

dist_polar_orbit minimizes over rotations about the polar axis (optionally
composed with the longitude reflection); dist_so3_orbit minimizes over all
of SO(3).  For p = 2 both reduce the distance to a correlation that is a
trigonometric polynomial in the rotation angles (one angle for the polar
orbit, three Euler angles for SO(3), with the Wigner matrices of
`rotations`; the polar one is the SO(3) one at zero tilt).  One inverse
FFT samples it on a uniform grid, `_periodic_local_maxima` selects its
sampled peaks, and Newton polishes them, so the result is the global
optimum up to the sampling resolution.  The polynomial only locates the
optimum: its expanded form cancels catastrophically near the orbit, so
the returned distance is measured at the optimal orbit member, and is
therefore also a certified upper bound.  At p = 2 that measurement is
Parseval's norm_l2 of the difference (lp_distance), so it needs no
quadrature grid.  For p != 2 a local refinement of lp_distance,
integrated on a grid, starts from the sampled minima of lp_distance
(polar) or from the p = 2 optimum (SO(3)).
"""

from __future__ import annotations

import numpy as np

from .grid import GridField, build_grid, integrate
from .harmonics import SpectralField, _upper_triangle, norm_l2, synthesize
from .rotations import (
    angular_momentum,
    degree_vector,
    euler_to_matrix,
    jy_eigvecs,
    matrix_to_euler,
    reflect_longitude,
    rotate_polar,
    rotate_wigner,
    wigner_D,
)

SO3_POLISH = 8            # sampled correlation maxima polished by Newton
SO3_NEWTON_MAXITER = 30
SO3_TIE_RTOL = 1e-10      # correlations this close (times ||f|| ||t||) are all measured
SO3_LP_MAXITER = 120      # Nelder-Mead iterations of the p != 2 refinement


def check_p(p: float) -> None:
    """Raise ValueError unless 1 < p < inf; NaN fails too."""
    if not 1.0 < p < np.inf:
        raise ValueError(f"p must lie in (1, inf), got {p:g}")


def lp_distance(f: SpectralField, g: SpectralField, p: float) -> float:
    """(int |f - g|^p d_sigma)^(1/p).

    p = 2 is norm_l2(f - g) by Parseval, with no grid.  Any other p is
    integrated on a 4(L+1) x 4(L+1) grid.  Parseval counts every stored
    coefficient, while synthesis reads only the slots j >= m, so a
    nonzero f - g in a structural-zero slot m > j would make the two
    disagree: it raises ValueError for every p.
    """
    check_p(p)
    if f.L != g.L:
        raise ValueError("fields must share a truncation degree")
    diff = SpectralField(f.L, f.coeffs - g.coeffs)
    stray = (diff.coeffs != 0.0) & ~_upper_triangle(f.L)
    if stray.any():
        m, j = np.argwhere(stray)[0]
        raise ValueError(f"f - g has a nonzero coefficient in the structural-zero slot "
                         f"(j, m) = ({j}, {m}), m > j")
    if p == 2.0:
        return norm_l2(diff)
    spec = build_grid(f.L, n_lat=4 * (f.L + 1), n_lon=4 * (f.L + 1))
    vals = synthesize(diff, spec).values
    return float(integrate(GridField(values=np.abs(vals) ** p, spec=spec)) ** (1.0 / p))


def _periodic_local_maxima(c: np.ndarray) -> np.ndarray:
    """Flat indices of the samples that no periodic neighbour exceeds, best first."""
    M = c
    for axis in range(c.ndim):
        M = np.maximum(M, np.maximum(np.roll(M, 1, axis), np.roll(M, -1, axis)))
    peaks = np.flatnonzero(c.ravel() >= M.ravel())
    return peaks[np.argsort(-c.ravel()[peaks], kind="stable")]


def _polar_sweep(f: SpectralField, target: SpectralField, p: float):
    """Minimize beta -> ||rotate_polar(target, beta) - f||_p.

    For p = 2 this maximizes the correlation <rotate_polar(target, beta),
    f> = Re[s_0 + 2 sum_{m>=1} s_m e^{i m beta}], s_m = sum_j t_j^m
    conj(f_j^m): the SO(3) correlation at zero tilt.  One irfft samples
    it on 4L+4 uniform angles, and every sampled periodic local maximum
    (`_periodic_local_maxima`) is polished by Newton on the polynomial.
    The polynomial only locates beta*: its expanded form cancels
    catastrophically near the orbit, so the returned distance is measured
    as norm_l2(f - rotate_polar(target, beta*)).  For general p the
    sampled local minima of lp_distance feed a bounded golden-section
    refinement.
    """
    L = f.L
    n = 4 * L + 4
    betas = 2.0 * np.pi * np.arange(n) / n
    if p == 2.0:
        s = np.einsum("mj,mj->m", target.coeffs, np.conj(f.coeffs))
        corr = n * np.fft.irfft(s, n)
        s[1:] *= 2.0
        m = np.arange(L + 1)
        # polish every sampled local maximum: the global basin need not
        # contain the single best sample
        polished = []
        for k in _periodic_local_maxima(corr):
            b = betas[k]
            for _ in range(30):
                ph = np.exp(1j * m * b)
                curv = -float(np.real(np.sum(m * m * s * ph)))
                if curv >= 0:
                    break
                step = float(np.real(np.sum(1j * m * s * ph))) / curv
                b -= step
                if abs(step) < 1e-15:
                    break
            if np.real(np.sum(s * np.exp(1j * m * b))) < corr[k]:
                b = betas[k]
            polished.append(b)
        d, cand = min((norm_l2(SpectralField(L, f.coeffs - rotate_polar(target, b).coeffs)), b)
                      for b in polished)
        return d, float(cand % (2.0 * np.pi))

    # scipy.optimize costs ~0.5 s to import and only p != 2 needs it
    from scipy import optimize

    def dist(b):
        return lp_distance(f, rotate_polar(target, b), p)

    vals = np.array([dist(b) for b in betas])
    best_b, best_d = betas[int(np.argmin(vals))], float(vals.min())
    for b0 in betas[_periodic_local_maxima(-vals)]:
        lo, hi = b0 - 2.0 * np.pi / n, b0 + 2.0 * np.pi / n
        res = optimize.minimize_scalar(dist, bounds=(lo, hi), method="bounded",
                                       options={"xatol": 1e-12})
        if res.fun < best_d:
            best_d, best_b = float(res.fun), float(res.x)
    return best_d, float(best_b % (2.0 * np.pi))


def dist_polar_orbit(f: SpectralField, target: SpectralField, p: float = 2.0,
                     include_reflection: bool = False):
    """Distance from f to the polar-rotation orbit of target.

    Returns (distance, beta_star); with include_reflection the orbit also
    contains reflect_longitude compositions, and beta_star refers to the
    winning family.
    """
    if f.L != target.L:
        raise ValueError("fields must share a truncation degree")
    d, b = _polar_sweep(f, target, p)
    if include_reflection:
        dr, br = _polar_sweep(f, reflect_longitude(target), p)
        if dr < d:
            return dr, br
    return d, b


def _top_degree(c: SpectralField) -> int:
    """Largest degree with a nonzero coefficient (0 for the zero field)."""
    nonzero = np.flatnonzero(np.any(c.coeffs != 0.0, axis=0))
    return int(nonzero[-1]) if nonzero.size else 0


def _rotation_exp(w: np.ndarray) -> np.ndarray:
    """exp([w]x): the rotation by |w| about w (Rodrigues)."""
    t = float(np.linalg.norm(w))
    if t == 0.0:
        return np.eye(3)
    K = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    return np.eye(3) + (np.sin(t) / t) * K + ((1.0 - np.cos(t)) / t ** 2) * (K @ K)


def _correlation_samples(fv, tv, n: int) -> np.ndarray:
    """c(alpha, beta, gamma) = <f, D(alpha, beta, gamma) t> on an n^3 grid.

    With d^j(beta) = V diag(e^{-i lam beta}) V^H the correlation is the
    trigonometric polynomial sum C[m, lam, k] e^{i(m alpha + lam beta +
    k gamma)}, C[m, lam, k] = sum_j f_j^m conj(V_{m lam}) V_{k lam}
    conj(t_j^k), of degree J in each angle; one inverse FFT samples it at
    the angles 2 pi (0..n-1)/n.
    """
    A = np.zeros((n, n, n), dtype=complex)
    for j, (f_j, t_j) in enumerate(zip(fv, tv)):
        V = jy_eigvecs(j)
        idx = np.arange(-j, j + 1) % n
        A[np.ix_(idx, idx, idx)] += np.einsum(
            "ml,kl->mlk", f_j[:, None] * V.conj(), V * t_j.conj()[:, None])
    return (np.fft.ifftn(A) * n ** 3).real


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
    stall at the Euler gimbal lock (beta = 0, pi) as Newton in Euler
    angles does.  Directions without negative curvature take no step, and
    a step is at most 0.5 rad.  Returns (c, R) after the last step, or the
    start if the steps lost correlation.
    """
    c0 = None
    for _ in range(SO3_NEWTON_MAXITER):
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


def dist_so3_orbit(f: SpectralField, target: SpectralField, p: float = 2.0):
    """Distance from f to the SO(3) orbit of target; returns (d, euler).

    For p = 2, ||f - D(R) t||^2 = ||f||^2 + ||t||^2 - 2 <f, D(R) t>, so the
    search maximizes the correlation: it is sampled on a 4(J+1)-per-axis
    Euler grid by one 3-D FFT (J = the top degree of target), the best
    SO3_POLISH periodic local maxima are Newton-polished in local
    rotation coordinates, and the distance is measured at each polished
    rotation R* that ties for the largest correlation as
    lp_distance(f, rotate_wigner(target, R*), 2), by Parseval: the orbit
    member is rotated by its Wigner matrices, so p = 2 uses no grid.  The
    result is the global minimum up to the sampling resolution, and
    always the measured distance to an actual orbit member.  For p != 2,
    Nelder-Mead over local rotation coordinates refines the p = 2 optimum
    of the same pair, and each lp_distance integrates on the one
    4(L+1) x 4(L+1) grid.
    """
    if f.L != target.L:
        raise ValueError("fields must share a truncation degree")
    J = _top_degree(target)
    fv = [degree_vector(f, j) for j in range(J + 1)]
    tv = [degree_vector(target, j) for j in range(J + 1)]
    n = 4 * (J + 1)
    samples = _correlation_samples(fv, tv, n)
    seeds = _periodic_local_maxima(samples)[:SO3_POLISH]
    polished = []
    for a, b, g in zip(*np.unravel_index(seeds, samples.shape)):
        euler = tuple(2.0 * np.pi * np.array([a, b, g]) / n)
        polished.append(_newton_polish(fv, tv, euler_to_matrix(euler)))
    polished.sort(key=lambda cR: -cR[0])
    tie = SO3_TIE_RTOL * norm_l2(f) * norm_l2(target)
    best: list[np.ndarray] = []
    for c, R in polished:
        if c < polished[0][0] - tie:
            break
        if all(np.abs(R - other).max() > 1e-8 for other in best):
            best.append(R)
    if p == 2.0:
        d, euler = min((lp_distance(f, rotate_wigner(target, e), p), e)
                       for e in map(matrix_to_euler, best))
        return float(d), euler

    # scipy.optimize costs ~0.5 s to import and only p != 2 needs it
    from scipy import optimize

    R0 = best[0]

    def dist(w):
        return lp_distance(f, rotate_wigner(target, matrix_to_euler(_rotation_exp(w) @ R0)), p)

    d0 = dist(np.zeros(3))
    res = optimize.minimize(dist, np.zeros(3), method="Nelder-Mead",
                            options={"maxiter": SO3_LP_MAXITER, "xatol": 1e-10,
                                     "fatol": 1e-14})
    if res.fun < d0:
        return float(res.fun), matrix_to_euler(_rotation_exp(res.x) @ R0)
    return float(d0), matrix_to_euler(R0)
