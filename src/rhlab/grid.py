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
    pair exact on bandlimited fields; the defaults n_lat = 2(L+1),
    n_lon = 4(L+1) add the margin needed so quadratic products of two
    degree-L fields are analyzed without aliasing.  Grids from
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
    def phi(self) -> np.ndarray:
        return _read_only(2.0 * np.pi * np.arange(self.n_lon) / self.n_lon)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_grid(L: int, n_lat: int | None = None, n_lon: int | None = None) -> GridSpec:
    """The GridSpec for (L, n_lat, n_lon), validating the transform-exactness bounds.

    Grids are cached by value: equal arguments after defaulting return the
    same object, so the Legendre table keyed on it is built once.  At
    most two grids are kept (a run uses its stepping grid plus at most one
    measurement grid, and the table of the default grid at L=170 takes
    about 81 MB).
    """
    if L < 2:
        raise ValueError(f"truncation degree L={L} must be >= 2")
    if n_lat is None:
        n_lat = 2 * (L + 1)
    if n_lon is None:
        n_lon = 4 * (L + 1)
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
    spec = f.spec
    row_sums = f.values.sum(axis=1)
    return float((2.0 * np.pi / spec.n_lon) * np.dot(spec.weights, row_sums))
