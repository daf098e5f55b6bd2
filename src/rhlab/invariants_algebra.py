"""Moment invariants of degree-2 states and the orbit classifiers built
from them.

A field alpha sin(theta) + Y with Y in the degree-2 real basis
(a, b, c, d, e) has moments I_m = int f^m d_sigma that are closed-form
polynomials in (alpha, a, b, c, d, e).  The moments determine derived
scalars A..F and right-hand sides b1..b6 of a quartic polynomial system
whose unknowns are the reduced invariants (a, u, v, w); that system has
at most two solutions, which is the algebraic heart of the orbit-
identifiability results exercised here.
"""

from __future__ import annotations

import math
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


# I_m = _MOMENT_FACTORS[m - 2] * X_m for (X_2, ..., X_7) = (A, ..., F)
_MOMENT_FACTORS = (4 * PI / 15, 16 * PI / 35, 4 * PI / 105,
                   32 * PI / 231, 4 * PI / 3003, 16 * PI / 429)


def _moment_scalars(alpha, a, b, c, d, e):
    """The scalars A..F, one literal integer polynomial each.

    Integer coefficients keep the evaluation exact when the arguments are
    `Fraction`s.
    """
    A = 12 * a**2 + 5 * alpha**2 + 4 * b**2 + 4 * c**2 + 4 * d**2 + 4 * e**2
    B = (
        4 * a**3 + 7 * a * alpha**2 + 2 * a * b**2 + 2 * a * c**2 - 4 * a * d**2
        - 4 * a * e**2 + 2 * b**2 * d + 4 * b * c * e - 2 * c**2 * d
    )
    C = (
        144 * a**4 + 264 * a**2 * alpha**2 + 96 * a**2 * b**2 + 96 * a**2 * c**2
        + 96 * a**2 * d**2 + 96 * a**2 * e**2 + 21 * alpha**4 + 72 * alpha**2 * b**2
        + 72 * alpha**2 * c**2 + 24 * alpha**2 * d**2 + 24 * alpha**2 * e**2
        + 16 * b**4 + 32 * b**2 * c**2 + 32 * b**2 * d**2 + 32 * b**2 * e**2
        + 16 * c**4 + 32 * c**2 * d**2 + 32 * c**2 * e**2 + 16 * d**4
        + 32 * d**2 * e**2 + 16 * e**4
    )
    D = (
        48 * a**5 + 176 * a**3 * alpha**2 + 40 * a**3 * b**2 + 40 * a**3 * c**2
        - 32 * a**3 * d**2 - 32 * a**3 * e**2 + 24 * a**2 * b**2 * d
        + 48 * a**2 * b * c * e - 24 * a**2 * c**2 * d + 33 * a * alpha**4
        + 66 * a * alpha**2 * b**2 + 66 * a * alpha**2 * c**2 + 8 * a * b**4
        + 16 * a * b**2 * c**2 - 8 * a * b**2 * d**2 - 8 * a * b**2 * e**2
        + 8 * a * c**4 - 8 * a * c**2 * d**2 - 8 * a * c**2 * e**2 - 16 * a * d**4
        - 32 * a * d**2 * e**2 - 16 * a * e**4 + 22 * alpha**2 * b**2 * d
        + 44 * alpha**2 * b * c * e - 22 * alpha**2 * c**2 * d + 8 * b**4 * d
        + 16 * b**3 * c * e + 8 * b**2 * d**3 + 8 * b**2 * d * e**2
        + 16 * b * c**3 * e + 16 * b * c * d**2 * e + 16 * b * c * e**3
        - 8 * c**4 * d - 8 * c**2 * d**3 - 8 * c**2 * d * e**2
    )
    E = (
        10176 * a**6 + 45552 * a**4 * alpha**2 + 10176 * a**4 * b**2
        + 10176 * a**4 * c**2 + 5568 * a**4 * d**2 + 5568 * a**4 * e**2
        + 1536 * a**3 * b**2 * d + 3072 * a**3 * b * c * e - 1536 * a**3 * c**2 * d
        + 15444 * a**2 * alpha**4 + 26208 * a**2 * alpha**2 * b**2
        + 26208 * a**2 * alpha**2 * c**2 + 3744 * a**2 * alpha**2 * d**2
        + 3744 * a**2 * alpha**2 * e**2 + 3264 * a**2 * b**4
        + 6528 * a**2 * b**2 * c**2 + 4224 * a**2 * b**2 * d**2
        + 4224 * a**2 * b**2 * e**2 + 3264 * a**2 * c**4
        + 4224 * a**2 * c**2 * d**2 + 4224 * a**2 * c**2 * e**2
        + 4416 * a**2 * d**4 + 8832 * a**2 * d**2 * e**2 + 4416 * a**2 * e**4
        + 4992 * a * alpha**2 * b**2 * d + 9984 * a * alpha**2 * b * c * e
        - 4992 * a * alpha**2 * c**2 * d + 768 * a * b**4 * d
        + 1536 * a * b**3 * c * e - 1536 * a * b**2 * d**3
        - 1536 * a * b**2 * d * e**2 + 1536 * a * b * c**3 * e
        - 3072 * a * b * c * d**2 * e - 3072 * a * b * c * e**3
        - 768 * a * c**4 * d + 1536 * a * c**2 * d**3 + 1536 * a * c**2 * d * e**2
        + 429 * alpha**6 + 2860 * alpha**4 * b**2 + 2860 * alpha**4 * c**2
        + 572 * alpha**4 * d**2 + 572 * alpha**4 * e**2 + 3120 * alpha**2 * b**4
        + 6240 * alpha**2 * b**2 * c**2 + 3744 * alpha**2 * b**2 * d**2
        + 3744 * alpha**2 * b**2 * e**2 + 3120 * alpha**2 * c**4
        + 3744 * alpha**2 * c**2 * d**2 + 3744 * alpha**2 * c**2 * e**2
        + 624 * alpha**2 * d**4 + 1248 * alpha**2 * d**2 * e**2
        + 624 * alpha**2 * e**4 + 320 * b**6 + 960 * b**4 * c**2
        + 1344 * b**4 * d**2 + 960 * b**4 * e**2 + 1536 * b**3 * c * d * e
        + 960 * b**2 * c**4 + 1152 * b**2 * c**2 * d**2 + 3456 * b**2 * c**2 * e**2
        + 960 * b**2 * d**4 + 1920 * b**2 * d**2 * e**2 + 960 * b**2 * e**4
        - 1536 * b * c**3 * d * e + 320 * c**6 + 1344 * c**4 * d**2
        + 960 * c**4 * e**2 + 960 * c**2 * d**4 + 1920 * c**2 * d**2 * e**2
        + 960 * c**2 * e**4 + 320 * d**6 + 960 * d**4 * e**2 + 960 * d**2 * e**4
        + 320 * e**6
    )
    F = (
        576 * a**7 + 3792 * a**5 * alpha**2 + 672 * a**5 * b**2 + 672 * a**5 * c**2
        - 192 * a**5 * d**2 - 192 * a**5 * e**2 + 288 * a**4 * b**2 * d
        + 576 * a**4 * b * c * e - 288 * a**4 * c**2 * d + 2028 * a**3 * alpha**4
        + 2736 * a**3 * alpha**2 * b**2 + 2736 * a**3 * alpha**2 * c**2
        + 96 * a**3 * alpha**2 * d**2 + 96 * a**3 * alpha**2 * e**2
        + 256 * a**3 * b**4 + 512 * a**3 * b**2 * c**2 - 64 * a**3 * b**2 * d**2
        - 64 * a**3 * b**2 * e**2 + 256 * a**3 * c**4 - 64 * a**3 * c**2 * d**2
        - 64 * a**3 * c**2 * e**2 - 320 * a**3 * d**4 - 640 * a**3 * d**2 * e**2
        - 320 * a**3 * e**4 + 816 * a**2 * alpha**2 * b**2 * d
        + 1632 * a**2 * alpha**2 * b * c * e - 816 * a**2 * alpha**2 * c**2 * d
        + 192 * a**2 * b**4 * d + 384 * a**2 * b**3 * c * e
        + 192 * a**2 * b**2 * d**3 + 192 * a**2 * b**2 * d * e**2
        + 384 * a**2 * b * c**3 * e + 384 * a**2 * b * c * d**2 * e
        + 384 * a**2 * b * c * e**3 - 192 * a**2 * c**4 * d
        - 192 * a**2 * c**2 * d**3 - 192 * a**2 * c**2 * d * e**2
        + 143 * a * alpha**6 + 650 * a * alpha**4 * b**2 + 650 * a * alpha**4 * c**2
        + 52 * a * alpha**4 * d**2 + 52 * a * alpha**4 * e**2
        + 480 * a * alpha**2 * b**4 + 960 * a * alpha**2 * b**2 * c**2
        + 144 * a * alpha**2 * b**2 * d**2 + 144 * a * alpha**2 * b**2 * e**2
        + 480 * a * alpha**2 * c**4 + 144 * a * alpha**2 * c**2 * d**2
        + 144 * a * alpha**2 * c**2 * e**2 - 48 * a * alpha**2 * d**4
        - 96 * a * alpha**2 * d**2 * e**2 - 48 * a * alpha**2 * e**4
        + 32 * a * b**6 + 96 * a * b**4 * c**2 + 96 * a * b**2 * c**4
        - 96 * a * b**2 * d**4 - 192 * a * b**2 * d**2 * e**2 - 96 * a * b**2 * e**4
        + 32 * a * c**6 - 96 * a * c**2 * d**4 - 192 * a * c**2 * d**2 * e**2
        - 96 * a * c**2 * e**4 - 64 * a * d**6 - 192 * a * d**4 * e**2
        - 192 * a * d**2 * e**4 - 64 * a * e**6 + 130 * alpha**4 * b**2 * d
        + 260 * alpha**4 * b * c * e - 130 * alpha**4 * c**2 * d
        + 240 * alpha**2 * b**4 * d + 480 * alpha**2 * b**3 * c * e
        + 144 * alpha**2 * b**2 * d**3 + 144 * alpha**2 * b**2 * d * e**2
        + 480 * alpha**2 * b * c**3 * e + 288 * alpha**2 * b * c * d**2 * e
        + 288 * alpha**2 * b * c * e**3 - 240 * alpha**2 * c**4 * d
        - 144 * alpha**2 * c**2 * d**3 - 144 * alpha**2 * c**2 * d * e**2
        + 32 * b**6 * d + 64 * b**5 * c * e + 32 * b**4 * c**2 * d + 64 * b**4 * d**3
        + 64 * b**4 * d * e**2 + 128 * b**3 * c**3 * e + 128 * b**3 * c * d**2 * e
        + 128 * b**3 * c * e**3 - 32 * b**2 * c**4 * d + 32 * b**2 * d**5
        + 64 * b**2 * d**3 * e**2 + 32 * b**2 * d * e**4 + 64 * b * c**5 * e
        + 128 * b * c**3 * d**2 * e + 128 * b * c**3 * e**3 + 64 * b * c * d**4 * e
        + 128 * b * c * d**2 * e**3 + 64 * b * c * e**5 - 32 * c**6 * d
        - 64 * c**4 * d**3 - 64 * c**4 * d * e**2 - 32 * c**2 * d**5
        - 64 * c**2 * d**3 * e**2 - 32 * c**2 * d * e**4
    )
    return (A, B, C, D, E, F)


def _round(q: Fraction) -> float:
    """The float nearest to q, with IEEE overflow to infinity."""
    try:
        return float(q)
    except OverflowError:
        return math.copysign(math.inf, q)


def moments_analytic(alpha: float, y: E2Coeffs) -> MomentSet:
    """Closed-form moments of alpha sin(theta) + Y(a,b,c,d,e), plus A..F, b1..b6.

    A..F and b1..b6 are evaluated in exact rational arithmetic on the
    given floats and rounded once, as in `verify_abcde_system`: in
    floating point b6 cancels terms of order |E| down to order alpha^2
    before dividing by alpha^2, which cost it up to 1e-11 of relative
    accuracy at alpha >= 0.2, growing as 1/alpha^2 below.  The moments
    I_m are the rounded scalars times their factors.
    """
    x = tuple(Fraction(t) for t in (alpha, *y.as_tuple()))
    A, B, C, D, E, F = scalars = _moment_scalars(*x)
    a2 = x[0] ** 2
    b = [(A - 5 * a2) / 4, B]
    if alpha != 0.0:
        b += [
            (C - A**2) / (16 * a2) + a2 / 4,
            (D - A * B) / (2 * a2),
            (6 * A * D - 6 * A**2 * B + 3 * B * C - 3 * F) / (48 * a2 * a2),
            (17 * A * C + 96 * B**2 - 12 * A**3 - E) / (16 * a2) + 9 * a2 * a2,
        ]
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
    result.  A nonzero residual therefore means a failed identity.
    """
    if alpha == 0.0:
        raise ValueError("the identities require alpha != 0")
    x = tuple(Fraction(t) for t in (alpha, *y.as_tuple()))
    A, B, C, D, E, F = _moment_scalars(*x)
    a, u, v, w = reduced_invariants(E2Coeffs(*x[1:])).as_tuple()
    a2 = x[0] ** 2
    lhs = (
        12 * a**2 + 5 * a2 + 4 * u + 4 * v,
        4 * a**3 + 7 * a * a2 + 2 * a * u - 4 * a * v + 2 * w,
        a2 * (36 * a**2 - a2 + 8 * u - 4 * v),
        a2 * (36 * a**3 - a * a2 + 14 * a * u - 4 * a * v + 6 * w),
        a2**2 * (36 * a**3 - a * a2 + 10 * a * u - 4 * a * v + 2 * w),
        a2 * (324 * a2 * a**2 + 288 * a**2 * v - 144 * a * w + 68 * a2 * u
              - 44 * a2 * v + 16 * u**2 - 16 * u * v - 32 * v**2 - 9 * a2**2),
    )
    rhs = (
        A,
        B,
        (C - A**2) / 4,
        (D - A * B) / 2,
        (6 * A * D - 6 * A**2 * B + 3 * B * C - 3 * F) / 48,
        (17 * A * C + 96 * B**2 - 12 * A**3 - E) / 16,
    )
    residuals = tuple(float(l - r) for l, r in zip(lhs, rhs))
    scales = tuple(float(max(abs(l), abs(r), 1)) for l, r in zip(lhs, rhs))
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
    lambda^3 + p1 lambda + p0 of the associated traceless matrix."""
    a, b, c, d, e = y.as_tuple()
    p1 = -(3 * a * a + b * b + c * c + d * d + e * e)
    p0 = (-2 * a**3 - a * b * b - a * c * c + 2 * a * d * d + 2 * a * e * e
          - b * b * d - 2 * b * c * e + c * c * d)
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
