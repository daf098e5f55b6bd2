"""Quadrature grid on the unit sphere.

Latitudes are Gauss-Legendre nodes in mu = sin(theta) (theta is latitude,
so mu in (-1, 1) and the poles are never grid points); longitudes are
equally spaced on [0, 2*pi).  Surface integrals of fields bandlimited to
the grid's resolution are exact up to roundoff.  The Gauss-Legendre rule
is found by Newton's method on the Legendre recurrence in O(n^2) work
(`gauss_legendre`), with no eigensolve: for n <= 596 its nodes are within
1.7 ulps and its weights within 1.3e-13 relative of a 40-digit rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


# A Newton step of at most NEWTON_TOL is at the rounding level of the
# Legendre recurrence (such steps measure below 1.2e-16 for n <= 2000),
# so the nodes have converged; no n needs more than 4 passes.
NEWTON_TOL = 1e-15
NEWTON_PASSES = 10


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Nodes are the roots of the degree-n Legendre polynomial, returned in
    ascending order; the rule is exact for polynomials of degree <= 2n-1
    and the weights sum to 2.

    Only the nodes x >= 0 are computed; the southern half is their
    mirror image, so nodes and weights are symmetric bit for bit and the
    middle node of an odd rule is exactly 0.  Newton's method starts
    from Tricomi's asymptotic nodes (Hale and Townsend, SIAM J. Sci.
    Comput. 35(2), 2013) and evaluates P_n and P_{n-1} by the three-term
    recurrence, each pass O(n^2) for all the nodes at once, until a step
    falls below the rounding level of the recurrence: 3 passes for
    n > 45, 4 below.  The weight of a node is the inverse Christoffel sum
    1 / sum_{j<n} (j + 1/2) P_j(x)^2, read off the last pass and moved to
    first order by that pass's step, d log w / dx = -2x / (1 - x^2) at a
    root, so it is the weight of the exact root rather than of its
    rounding.  Against a 40-digit rule for n <= 596 the nodes are within
    1.7 ulps and the weights within 1.3e-13 relative, and the discrete
    orthonormality of the normalized P_j, j < n, holds to 2.3e-14; numpy's
    eigenvalue rule, leggauss, is off by 2.7e-11 and 3.2e-10 in its
    weights and by 5.6e-13 and 2.2e-12 in orthonormality at n = 316 and
    596.  At n = 316 it takes about 3 ms, leggauss 10 ms (one BLAS
    thread, 2-core host).
    """
    if n < 1:
        raise ValueError("Gauss-Legendre rule needs n >= 1 nodes")
    j = np.arange(1.0, n)
    a, b = (2.0 * j + 1.0) / (j + 1.0), j / (j + 1.0)  # P_{j+1} = a_j x P_j - b_j P_{j-1}
    theta = (4.0 * np.arange(n // 2, 0, -1) - 1.0) * np.pi / (4.0 * n + 2.0)
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n ** 4)) * np.cos(theta)
    if n % 2:
        x = np.concatenate(([0.0], x))
    p, ax, t = np.empty((n + 1, x.size)), np.empty((n - 1, x.size)), np.empty(x.size)
    for _ in range(NEWTON_PASSES):
        p[0], p[1] = 1.0, x
        np.multiply(a[:, None], x, out=ax)
        for k in range(1, n):
            np.multiply(ax[k - 1], p[k], out=t)
            np.multiply(p[k - 1], b[k - 1], out=p[k + 1])
            np.subtract(t, p[k + 1], out=p[k + 1])
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        # P_n' = n (x P_n - P_{n-1}) / (x^2 - 1)
        step = p[n] * one_minus_x2 / (n * (p[n - 1] - x * p[n]))
        if np.abs(step).max() <= NEWTON_TOL:
            break
        x = x - step
    else:
        raise ArithmeticError(f"Newton's method for the {n}-point Gauss-Legendre rule did not converge")
    christoffel = np.einsum("j,jk,jk->k", np.arange(n) + 0.5, p[:n], p[:n])
    w = (1.0 + 2.0 * x * step / one_minus_x2) / christoffel
    x = x - step
    south = slice(n % 2, None)
    return (np.concatenate((-x[south][::-1], x)),
            np.concatenate((w[south][::-1], w)))


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Gauss-Legendre x equiangular-longitude grid for truncation degree L.

    n_lat >= L+1 and n_lon >= 2L+1 make the spherical-harmonic transform
    pair exact on bandlimited fields.  A grid of `exact_shape(d)`
    integrates every field bandlimited to degree d exactly; the default
    grid, `exact_shape(3L)`, analyzes quadratic products of two degree-L
    fields to degree L without aliasing (Orszag's 3/2 rule).  Grids from
    `build_grid` are shared, so their arrays are read-only.
    """

    L: int
    n_lat: int
    n_lon: int
    mu_nodes: np.ndarray  # sin(latitude), strictly increasing, in (-1, 1)
    weights: np.ndarray   # quadrature weights, sum to 2

    @cached_property
    def cos_theta(self) -> np.ndarray:
        return _read_only(np.sqrt(1.0 - self.mu_nodes ** 2))

    @cached_property
    def area_weights(self) -> np.ndarray:
        """Quadrature weight of each node of a latitude: 2 pi / n_lon times its Gauss weight."""
        return _read_only((2.0 * np.pi / self.n_lon) * self.weights)

    @cached_property
    def sec_theta(self) -> np.ndarray:
        """1 / cos(latitude) of each latitude."""
        return _read_only(1.0 / self.cos_theta)

    @cached_property
    def phi(self) -> np.ndarray:
        return _read_only(2.0 * np.pi * np.arange(self.n_lon) / self.n_lon)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, an FFT length with only small prime factors."""
    m = max(n, 1)
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def exact_shape(degree: int) -> tuple[int, int]:
    """The (n_lat, n_lon) grid shape that integrates degree-`degree` fields exactly.

    Over a longitude circle only the order-0 part of a field survives,
    and n equispaced points sum e^{ik phi} to zero for 0 < |k| < n, so
    degree + 1 longitudes suffice; n_lon rounds that up to a 5-smooth FFT
    length.  The order-0 part is a polynomial of that degree in mu, which
    n Gauss-Legendre nodes integrate exactly when 2n - 1 >= degree, so
    n_lat is the fewest such n.
    """
    return (degree + 2) // 2, smooth_length(degree + 1)


# The largest supported truncation degree: its Legendre table, of degree
# 171, is the largest that the tests check against scipy.
MAX_L = 170


def build_grid(L: int, n_lat: int | None = None, n_lon: int | None = None) -> GridSpec:
    """The GridSpec for (L, n_lat, n_lon), validating the transform-exactness bounds.

    L must lie in [2, MAX_L], MAX_L = 170; any other L raises ValueError.
    A defaulted size comes from `exact_shape(3L)`: the analysis of a
    product of two degree-L fields against a degree-L harmonic integrates
    degree 3L, so n_lat = ceil((3L+1)/2) and n_lon is the smallest
    5-smooth length >= 3L+1 (at L=170, 256 x 512).  Equal arguments
    after defaulting return the same object, and a grid keeps its
    Legendre table and work regions (`harmonics.grid_tables`), so they
    are built once per grid and live as long as it.  This cache keeps at
    most two grids, since at L=170 the default grid's table takes
    15.3 MB and its work regions 8.4 MB: a run's stepping grid, which
    its `Stepper` holds for the whole run (the default grid in coupled
    mode; for a prescribed stream chi, the stencil's quadrature grid
    `exact_shape(2L + deg chi)`, with its table and no work regions), and
    its measurement grid, the moment grid of `moments_numeric`, which
    builds no table.  p = 2 distances, polar and SO(3), use no grid;
    p != 2 adds a 4(L+1) x 4(L+1) one.
    """
    if L < 2:
        raise ValueError(f"truncation degree L={L} must be >= 2")
    if L > MAX_L:
        raise ValueError(f"truncation degree L={L} exceeds the largest supported L={MAX_L}")
    default_lat, default_lon = exact_shape(3 * L)
    if n_lat is None:
        n_lat = default_lat
    if n_lon is None:
        n_lon = default_lon
    if n_lat < L + 1:
        raise ValueError(f"n_lat={n_lat} violates n_lat >= L+1 = {L + 1}")
    if n_lon < 2 * L + 1:
        raise ValueError(f"n_lon={n_lon} violates n_lon >= 2L+1 = {2 * L + 1}")
    return _shared_grid(L, n_lat, n_lon)


@lru_cache(maxsize=2)
def _shared_grid(L: int, n_lat: int, n_lon: int) -> GridSpec:
    mu, w = gauss_legendre(n_lat)
    return GridSpec(L=L, n_lat=n_lat, n_lon=n_lon,
                    mu_nodes=_read_only(mu), weights=_read_only(w))


def check_shape(values: np.ndarray, spec: GridSpec) -> None:
    """Raise ValueError unless values has spec's grid shape (n_lat, n_lon)."""
    if values.shape != (spec.n_lat, spec.n_lon):
        raise ValueError(f"field shape {values.shape} does not match grid "
                         f"({spec.n_lat}, {spec.n_lon})")


def integrate(values: np.ndarray, spec: GridSpec) -> float:
    """Surface integral over the sphere (d_sigma = cos(theta) dphi dtheta) of the values on spec.

    values must have the grid's shape (`check_shape`).  Latitude-major
    reduction in fixed index order, so the result is bitwise repeatable
    for the same values.  The latitude sum is a BLAS dot of n_lat terms,
    which OpenBLAS keeps on one thread at these lengths, so
    OPENBLAS_NUM_THREADS does not change it.  Values from `synthesize`
    carry the contract stated in `harmonics._synth_values`.
    """
    check_shape(values, spec)
    return integrate_rows(values.sum(axis=1), spec)


def integrate_rows(row_sums: np.ndarray, spec: GridSpec) -> float:
    """`integrate` of a field given by its sums along each latitude row."""
    return float((2.0 * np.pi / spec.n_lon) * np.dot(spec.weights, row_sums))
