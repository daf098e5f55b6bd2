"""Quadrature grid on the unit sphere.

Latitudes are Gauss-Legendre nodes in mu = sin(theta) (theta is latitude,
so mu in (-1, 1) and the poles are never grid points); longitudes are
equally spaced on [0, 2*pi).  Surface integrals of fields bandlimited to
the grid's resolution are exact up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Nodes are the roots of the degree-n Legendre polynomial, returned in
    ascending order; the rule is exact for polynomials of degree <= 2n-1
    and the weights sum to 2.
    """
    if n < 1:
        raise ValueError("Gauss-Legendre rule needs n >= 1 nodes")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


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


def build_grid(L: int, n_lat: int | None = None, n_lon: int | None = None) -> GridSpec:
    """The GridSpec for (L, n_lat, n_lon), validating the transform-exactness bounds.

    A defaulted size comes from `exact_shape(3L)`: the analysis of a
    product of two degree-L fields against a degree-L harmonic integrates
    degree 3L, so n_lat = ceil((3L+1)/2) and n_lon is the smallest
    5-smooth length >= 3L+1 (at L=170, 256 x 512).  Grids are cached by
    value: equal arguments after defaulting return the same object, so
    the Legendre table keyed on it, and the two work regions its
    transforms run in, are built once.  At most two grids are kept,
    since the table of the default grid at L=170 takes 15.3 MB and its
    work regions 8.4 MB (`harmonics.grid_tables`, `harmonics._GridWork`).
    A `Stepper` holds its own grid, and so its table, for a whole run,
    and the two places serve it and one measurement grid: the moment
    grid of `moments_numeric`, which builds no table.  p = 2 distances,
    polar and SO(3), use no grid; p != 2 adds a 4(L+1) x 4(L+1) one.
    """
    if L < 2:
        raise ValueError(f"truncation degree L={L} must be >= 2")
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


# a concept analyze and integrate could do without; it stays because the
# benchmark's flop counter reads the grid of a traced call from f.spec
@dataclass(frozen=True, eq=False)
class GridField:
    """Real scalar field sampled on a GridSpec (n_lat x n_lon values)."""

    values: np.ndarray
    spec: GridSpec

    def __post_init__(self):
        if self.values.shape != (self.spec.n_lat, self.spec.n_lon):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid "
                f"({self.spec.n_lat}, {self.spec.n_lon})"
            )


def integrate(f: GridField) -> float:
    """Surface integral of f over the sphere (d_sigma = cos(theta) dphi dtheta).

    Latitude-major reduction in fixed index order, so the result is bitwise
    repeatable for the same values.  The latitude sum is a BLAS dot of
    n_lat terms, which OpenBLAS keeps on one thread at these lengths, so
    OPENBLAS_NUM_THREADS does not change it.  Values from `synthesize`
    carry the contract stated in `harmonics._synth_values`.
    """
    return integrate_rows(f.values.sum(axis=1), f.spec)


def integrate_rows(row_sums: np.ndarray, spec: GridSpec) -> float:
    """`integrate` of a field given by its sums along each latitude row."""
    return float((2.0 * np.pi / spec.n_lon) * np.dot(spec.weights, row_sums))
