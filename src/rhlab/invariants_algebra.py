"""Moment invariants of degree-2 states and the orbit classifiers built
from them.

A field alpha sin(theta) + Y with Y in the degree-2 real basis
(a, b, c, d, e) has moments I_m = int f^m d_sigma, the rearrangement
invariants, that are polynomials in (alpha, a, b, c, d, e): up to the
factors 4 pi r_m they are the integer polynomials A..F, which are derived
here from that integral, monomial by monomial, on first use.  The
moments determine right-hand sides b1..b6 of a quartic polynomial system
whose unknowns are the reduced invariants (a, u, v, w); that system has
at most two solutions, which is the algebraic heart of the orbit-
identifiability results exercised here.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import build_grid, exact_shape, integrate_rows
from .harmonics import E2Coeffs, SpectralField, _synth_streamed

PI = np.pi


@dataclass(frozen=True)
class MomentSet:
    """Moments I2..I7 of alpha sin(theta) + Y and the derived scalars.

    b3..b6 involve division by alpha^2 and are None when alpha = 0; a
    value too large for a float is +-inf.
    """

    alpha: float
    I: tuple[float, float, float, float, float, float]  # I2 .. I7
    A: float
    B: float
    C: float
    D: float
    E: float
    F: float
    b1: float
    b2: float
    b3: float | None
    b4: float | None
    b5: float | None
    b6: float | None

    def b_vector(self) -> tuple[float, float, float, float, float, float]:
        if self.b3 is None:
            raise ValueError("b3..b6 undefined at alpha = 0")
        return (self.b1, self.b2, self.b3, self.b4, self.b5, self.b6)


@dataclass(frozen=True)
class ReducedInvariants:
    """(a, u, v, w) = (a, b^2+c^2, d^2+e^2, b^2 d - c^2 d + 2bce).

    Complete invariants of the polar-rotation-and-reflection orbit of a
    degree-2 field.
    """

    a: float
    u: float
    v: float
    w: float

    def as_tuple(self):
        return (self.a, self.u, self.v, self.w)


# I_m = 4 pi r_m X_m, r_m = _MOMENT_RATIOS[m - 2], for (X_2, ..., X_7) = (A, ..., F)
_MOMENT_RATIOS = (Fraction(1, 15), Fraction(4, 35), Fraction(1, 105),
                  Fraction(8, 231), Fraction(1, 3003), Fraction(4, 429))
_MOMENT_FACTORS = tuple(4 * r.numerator * PI / r.denominator for r in _MOMENT_RATIOS)

# f = alpha z + a (3z^2 - 1) + 2b xz + 2c yz + d (x^2 - y^2) + 2e xy on the unit
# sphere, z = sin(theta), as terms (coefficient, index of the term's parameter
# in (alpha, a, b, c, d, e), exponents of x, y, z)
_F_TERMS = ((1, 0, (0, 0, 1)), (3, 1, (0, 0, 2)), (-1, 1, (0, 0, 0)), (2, 2, (1, 0, 1)),
            (2, 3, (0, 1, 1)), (1, 4, (2, 0, 0)), (-1, 4, (0, 2, 0)), (2, 5, (1, 1, 0)))


def _sphere_mean(i: int, j: int, k: int) -> Fraction:
    """The mean of x^i y^j z^k over the unit sphere.

    (i-1)!! (j-1)!! (k-1)!! / (i+j+k+1)!! when i, j and k are all even,
    else 0 (Folland, "How to integrate a polynomial over a sphere", Amer.
    Math. Monthly 108 (2001)).
    """
    if i % 2 or j % 2 or k % 2:
        return Fraction(0)
    dfact = [math.prod(range(n, 0, -2)) for n in (i - 1, j - 1, k - 1, i + j + k + 1)]
    return Fraction(dfact[0] * dfact[1] * dfact[2], dfact[3])


@functools.cache
def _moment_polynomials() -> tuple[dict[tuple[int, ...], Fraction], ...]:
    """A..F as {exponents of (alpha, a, b, c, d, e): coefficient}.

    Derived from I_m = int f^m d_sigma: f^m is expanded in the nine
    variables (alpha, a, b, c, d, e, x, y, z), each monomial x^i y^j z^k
    is replaced by its `_sphere_mean`, which gives I_m / (4 pi), and the
    result is divided by r_m.  The coefficients come out as integers: A..F
    are the integer polynomials of Constantin and Germain (Arch. Ration.
    Mech. Anal. 245 (2022)), with 6, 9, 21, 35, 74 and 103 terms.  Built
    on first use, in about 30 ms, and never at import.
    """
    f = {tuple(int(q == p) for q in range(6)) + xyz: c for c, p, xyz in _F_TERMS}
    polynomials, power = [], f
    for r in _MOMENT_RATIOS:
        product = {}
        for k1, c1 in power.items():
            for k2, c2 in f.items():
                k = tuple(map(operator.add, k1, k2))
                product[k] = product.get(k, 0) + c1 * c2
        power = product
        X = {}
        for k, c in power.items():
            X[k[:6]] = X.get(k[:6], 0) + c * _sphere_mean(*k[6:]) / r
        polynomials.append({e: q for e, q in X.items() if q})
    return tuple(polynomials)


def _moment_scalars(*x: Fraction) -> tuple[Fraction, ...]:
    """The scalars A..F at the rationals x = (alpha, a, b, c, d, e), exactly.

    X_m is homogeneous of degree m, so with D the common denominator of
    x, X_m(x) = X_m(D x) / D^m: each of `_moment_polynomials` is summed on
    the integers D x, from their precomputed powers, and divided once.
    """
    D = math.lcm(*(t.denominator for t in x))
    powers = [[n**k for k in range(8)] for n in (t.numerator * (D // t.denominator) for t in x)]
    return tuple(
        sum(c * math.prod(map(list.__getitem__, powers, e)) for e, c in X.items()) / D**m
        for m, X in enumerate(_moment_polynomials(), start=2)
    )


def _identity_sides(A, B, C, D, E, F) -> tuple[Fraction, ...]:
    """The right-hand sides, in A..F, of the six moment identities of `verify_abcde_system`."""
    return (A, B, (C - A**2) / 4, (D - A * B) / 2,
            (6 * A * D - 6 * A**2 * B + 3 * B * C - 3 * F) / 48,
            (17 * A * C + 96 * B**2 - 12 * A**3 - E) / 16)


def _identity_affine(a2) -> tuple[tuple, ...]:
    """(scale_i, offset_i) of each identity at alpha^2 = a2: its right-hand
    side is r_i = scale_i b_i + offset_i, b_i the i-th of `speo1_equations`
    at the reduced invariants."""
    return ((4, 5 * a2), (1, 0), (4 * a2, -a2**2), (a2, 0), (a2**2, 0), (a2, -9 * a2**3))


def _round(q: Fraction) -> float:
    """The float nearest to q, with IEEE overflow to infinity."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def moments_analytic(alpha: float, y: E2Coeffs) -> MomentSet:
    """Closed-form moments of alpha sin(theta) + Y(a,b,c,d,e), plus A..F, b1..b6.

    A..F and b1..b6 are evaluated in exact rational arithmetic on the
    given floats and rounded once, as in `verify_abcde_system`: in
    floating point b6 cancels terms of order |E| down to order alpha^2
    before dividing by alpha^2, which cost it up to 1e-11 of relative
    accuracy at alpha >= 0.2, growing as 1/alpha^2 below.  The moments
    I_m are the rounded scalars times their factors, and b_i = (r_i -
    offset_i) / scale_i from the identities' sides (`_identity_sides`,
    `_identity_affine`); at alpha = 0 the scales of b3..b6 vanish.
    """
    x = tuple(Fraction(t) for t in (alpha, *y.as_tuple()))
    scalars = _moment_scalars(*x)
    affine = _identity_affine(x[0] ** 2)[: 6 if alpha != 0.0 else 2]
    b = [(r - offset) / scale for r, (scale, offset) in zip(_identity_sides(*scalars), affine)]
    A, B, C, D, E, F = (_round(q) for q in scalars)
    b1, b2, b3, b4, b5, b6 = [_round(q) for q in b] + [None] * (6 - len(b))
    I = tuple(k * s for k, s in zip(_MOMENT_FACTORS, (A, B, C, D, E, F)))
    return MomentSet(alpha=alpha, I=I, A=A, B=B, C=C, D=D, E=E, F=F,
                     b1=b1, b2=b2, b3=b3, b4=b4, b5=b5, b6=b6)


MOMENT_ROWS = 64  # latitude rows of the block in which moments_numeric forms the powers


def moments_numeric(f: SpectralField, m_max: int) -> list[float]:
    """Moments int f^m d_sigma for m = 2..m_max by exact quadrature.

    f^m_max is bandlimited to degree m_max * L, so the grid of
    `exact_shape(m_max * L)` integrates every power exactly: at L=90 and
    m_max=7 that is 316 x 640 nodes.  The grid gives only its nodes and
    weights: f is synthesized there with the Legendre recurrence
    streamed through the sums (`harmonics._synth_streamed`), so no
    Legendre table is built or kept for it.  The powers are formed
    MOMENT_ROWS latitude rows at a time in one block, so that besides f
    only that block is held, and each is integrated from its row sums
    (`integrate_rows`), exactly as `integrate` would.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    n_lat, n_lon = exact_shape(m_max * f.L)
    spec = build_grid(f.L, n_lat=n_lat, n_lon=n_lon)
    values = _synth_streamed(f.coeffs, spec)
    row_sums = np.empty((m_max - 1, n_lat))
    block = np.empty((min(MOMENT_ROWS, n_lat), n_lon))
    for r in range(0, n_lat, MOMENT_ROWS):
        rows = values[r : r + MOMENT_ROWS]
        power = block[: len(rows)]
        np.multiply(rows, rows, out=power)
        for m in range(2, m_max + 1):
            if m > 2:
                power *= rows
            np.sum(power, axis=1, out=row_sums[m - 2, r : r + MOMENT_ROWS])
    return [integrate_rows(sums, spec) for sums in row_sums]


def reduced_invariants(y: E2Coeffs) -> ReducedInvariants:
    a, b, c, d, e = y.as_tuple()
    return ReducedInvariants(
        a=a,
        u=b * b + c * c,
        v=d * d + e * e,
        w=b * b * d - c * c * d + 2 * b * c * e,
    )


# --------------------------------------------------------------------------
# The six moment identities and the polynomial system
# --------------------------------------------------------------------------


def speo1_equations(alpha: float, x) -> tuple[float, ...]:
    """Left-hand sides of the six-equation system in (x1, x2, x3, x4)."""
    x1, x2, x3, x4 = x
    a2 = alpha**2
    return (
        3 * x1**2 + x2 + x3,
        4 * x1**3 + 7 * a2 * x1 + 2 * x1 * x2 - 4 * x1 * x3 + 2 * x4,
        9 * x1**2 + 2 * x2 - x3,
        36 * x1**3 - a2 * x1 + 14 * x1 * x2 - 4 * x1 * x3 + 6 * x4,
        36 * x1**3 - a2 * x1 + 10 * x1 * x2 - 4 * x1 * x3 + 2 * x4,
        a2 * (324 * x1**2 + 68 * x2 - 44 * x3)
        + 288 * x1**2 * x3 - 144 * x1 * x4
        + 16 * x2**2 - 16 * x2 * x3 - 32 * x3**2,
    )


def verify_abcde_system(alpha: float, y: E2Coeffs):
    """Residuals of the six identities linking (a, u, v, w) to A..F.

    Returns (residuals, scales): residuals[i] = LHS_i - RHS_i and
    scales[i] a magnitude reference for relative comparison.  Both sides
    are evaluated in exact rational arithmetic on the given floats, since
    in floating point the sixth right-hand side cancels terms of order
    |E| down to order alpha^2, and that roundoff can exceed 1e-10 of the
    result.  A nonzero residual therefore means a failed identity.  Each
    value is rounded by `_round`, so one too large for a float is +-inf.
    """
    if alpha == 0.0:
        raise ValueError("the identities require alpha != 0")
    x = tuple(Fraction(t) for t in (alpha, *y.as_tuple()))
    b = speo1_equations(x[0], reduced_invariants(E2Coeffs(*x[1:])).as_tuple())
    lhs = tuple(scale * b_i + offset
                for b_i, (scale, offset) in zip(b, _identity_affine(x[0] ** 2)))
    rhs = _identity_sides(*_moment_scalars(*x))
    residuals = tuple(_round(l - r) for l, r in zip(lhs, rhs))
    scales = tuple(_round(max(abs(l), abs(r), 1)) for l, r in zip(lhs, rhs))
    return residuals, scales


DEGENERATE_TOL = 1e-9
RESIDUAL_TOL = 1e-8


def _back_substitute(x1: float, b) -> tuple[float, float, float, float]:
    b1, b2, b3, b4, b5, b6 = b
    x2 = -4 * x1**2 + (b1 + b3) / 3.0
    x3 = x1**2 + (2 * b1 - b3) / 3.0
    x4 = 4 * x1**3 - (b1 + b3) * x1 / 3.0 + (b4 - b5) / 4.0
    return (x1, x2, x3, x4)


def _verified(alpha, b, candidates):
    out = []
    for x in candidates:
        lhs = speo1_equations(alpha, x)
        ok = all(
            abs(l - bi) <= RESIDUAL_TOL * max(abs(l), abs(bi), 1.0)
            for l, bi in zip(lhs, b)
        )
        if ok:
            out.append(x)
    return out


def solve_polysys(alpha: float, b) -> tuple[list[tuple[float, float, float, float]], str]:
    """All real solutions (x1, x2, x3, x4) of the six-equation system.

    Elimination: the difference of equations 4 and 5 fixes x4 in terms of
    x1; equations 1 and 3 fix x2, x3.  Substituting into equation 5 gives
    a linear equation for x1 with slope 4 b3 - alpha^2; when that slope
    vanishes, equation 2 supplies a second linear relation, and when both
    degenerate the remaining constraint is a quadratic in x1 (at most two
    roots), subject to the consistency conditions b1 = 11 b3, b4 = 3 b5,
    b2 = b5.  Every candidate is checked against all six original
    equations before being returned.

    Returns (solutions, branch_tag) with branch_tag in
    {"generic", "degenerate-quadratic"}; inconsistent or rootless
    degenerate data yields an empty list.
    """
    if alpha == 0.0:
        raise ValueError("solver requires alpha != 0")
    b1, b2, b3, b4, b5, b6 = b
    a2 = alpha**2
    scale = max(a2, abs(b3), 1.0)
    slope1 = a2 - 4 * b3
    if abs(slope1) > DEGENERATE_TOL * scale:
        x1 = (b4 - 3 * b5) / (2 * slope1)
        return _verified(alpha, b, [_back_substitute(x1, b)]), "generic"
    slope2 = 7 * a2 - (4.0 / 3.0) * (2 * b1 - b3)
    scale2 = max(a2, abs(b1), abs(b3), 1.0)
    if abs(slope2) > DEGENERATE_TOL * scale2:
        x1 = (b2 + (b5 - b4) / 2.0) / slope2
        return _verified(alpha, b, [_back_substitute(x1, b)]), "generic"
    # doubly degenerate: both linear routes vanish identically, so the
    # data must satisfy three consistency conditions, and x1 obeys
    # 2048 b3 x1^2 - 72 b5 x1 = 1904 b3^2 + b6.
    cons_scale = max(abs(b1), abs(b2), abs(b3), abs(b4), abs(b5), 1.0)
    consistent = (
        abs(b1 - 11 * b3) <= RESIDUAL_TOL * cons_scale
        and abs(b4 - 3 * b5) <= RESIDUAL_TOL * cons_scale
        and abs(b2 - b5) <= RESIDUAL_TOL * cons_scale
    )
    if not consistent:
        return [], "degenerate-quadratic"
    qa = 2048 * b3
    qb = -72 * b5
    qc = -(1904 * b3**2 + b6)
    disc = qb * qb - 4 * qa * qc
    if disc < 0 or qa == 0:
        return [], "degenerate-quadratic"
    r = np.sqrt(disc)
    roots = sorted({(-qb - r) / (2 * qa), (-qb + r) / (2 * qa)})
    return _verified(alpha, b, [_back_substitute(x1, b) for x1 in roots]), "degenerate-quadratic"


# --------------------------------------------------------------------------
# Orbit classifiers
# --------------------------------------------------------------------------

ORBIT_TOL_DEG2 = 1e-9


def same_h_orbit_deg2(y: E2Coeffs, yp: E2Coeffs, tol: float = ORBIT_TOL_DEG2) -> bool:
    """Whether two degree-2 fields differ by a polar rotation or reflection:
    the reduced invariants (a, u, v, w) agree componentwise."""
    r = reduced_invariants(y).as_tuple()
    rp = reduced_invariants(yp).as_tuple()
    return all(abs(x - xp) <= tol * max(abs(x), abs(xp), 1.0) for x, xp in zip(r, rp))


def char_poly(y: E2Coeffs) -> tuple[float, float]:
    """Coefficients (p1, p0) of the characteristic polynomial
    lambda^3 + p1 lambda + p0 of the associated traceless matrix,
    `E2Coeffs.matrix`.  A Y whose a^3 overflows a float raises
    OverflowError naming it."""
    a, b, c, d, e = y.as_tuple()
    p1 = -(3 * a * a + b * b + c * c + d * d + e * e)
    try:
        p0 = (-2 * a**3 - a * b * b - a * c * c + 2 * a * d * d + 2 * a * e * e
              - b * b * d - 2 * b * c * e + c * c * d)
    except OverflowError:
        raise OverflowError("Y = " + ",".join(f"{v:g}" for v in y.as_tuple())) from None
    return (p1, p0)


def same_o3_orbit(y: E2Coeffs, yp: E2Coeffs, tol: float = ORBIT_TOL_DEG2) -> bool:
    """Whether two degree-2 fields are rotations of each other (equivalently
    equimeasurable): their characteristic polynomials coincide."""
    p1, p0 = char_poly(y)
    q1, q0 = char_poly(yp)
    return (abs(p1 - q1) <= tol * max(abs(p1), abs(q1), 1.0)
            and abs(p0 - q0) <= tol * max(abs(p0), abs(q0), 1.0))


def invariants_csv_row(y: E2Coeffs, alpha: float = 0.0) -> str:
    """CSV row "a,u,v,w,p1,p0,I2,...,I7" for reporting."""
    r = reduced_invariants(y)
    p1, p0 = char_poly(y)
    I = moments_analytic(alpha, y).I
    vals = [r.a, r.u, r.v, r.w, p1, p0, *I]
    return ",".join(f"{v:.17g}" for v in vals)
