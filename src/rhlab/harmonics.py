"""Spherical harmonics: normalized associated Legendre functions, the
forward/inverse transform pair, point evaluation, and the degree-2 real
basis used throughout the stability experiments.

Conventions
-----------
Harmonics follow the complex basis

    Y_j^m(phi, theta) = N_j^m P_j^m(sin theta) e^{i m phi},
    N_j^m = (-1)^m sqrt((2j+1)(j-m)! / (4 pi (j+m)!)),

with theta the latitude, so the argument of the Legendre function is
mu = sin(theta).  The Condon-Shortley phase (-1)^m lives inside the
normalization.  Real fields store coefficients for m >= 0 only; the
negative-m half is reconstructed from c_j^{-m} = (-1)^m conj(c_j^m).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import GridField, GridSpec, build_grid

SQRT4PI = float(np.sqrt(4.0 * np.pi))

# --------------------------------------------------------------------------
# Normalized associated Legendre functions
# --------------------------------------------------------------------------


def _recurrence_eps(L: int) -> np.ndarray:
    """eps[m, j] = sqrt((j^2 - m^2) / (4 j^2 - 1)) for 0 <= m < j <= L, else 0."""
    j = np.arange(L + 1)
    num = np.maximum(j * j - j[:, None] ** 2, 0)
    return np.sqrt(num / np.abs(4.0 * j * j - 1.0))


def norm_legendre_table(L: int, mu: np.ndarray, sink=None) -> np.ndarray | None:
    """Table P[m, j, k] = N_j^m P_j^m(mu_k) for 0 <= m <= j <= L.

    Seeded from the normalized diagonal term and filled with the stable
    three-term recurrence in j, one degree at a time for every order
    m < j at once; entries with m > j are zero.  Valid for any mu in
    [-1, 1], poles included.

    With a `sink`, nothing is stored: each degree's column P[:j+1, j] is
    passed as sink(j, column) once it is complete, and only the last
    three columns are kept, so `grid_tables` can lay the values out in
    its own order without a table-sized temporary.  Returns None then.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    n = mu.size
    s = np.sqrt(np.clip(1.0 - mu ** 2, 0.0, None))
    if sink is None:
        P = np.zeros((L + 1, L + 1, n))
        columns = P.swapaxes(0, 1)
    else:
        # degree j in slot j % 3; entries m > j stay zero, since the
        # column that slot held before had no order above j - 3
        ring = np.zeros((3, L + 1, n))
        columns = [ring[j % 3] for j in range(L + 1)]
    eps = _recurrence_eps(L)[:, :, None]
    for j in range(L + 1):
        col = columns[j]
        if j == 0:
            col[0] = 1.0 / SQRT4PI
        else:
            prev = columns[j - 1]
            col[j] = -np.sqrt((2 * j + 1) / (2.0 * j)) * s * prev[j - 1]
            if j == 1:
                col[0] = mu * prev[0] / eps[0, 1]
            else:
                # the order m = j-1 entry of column j-2 and eps[j-1, j-1] are zero
                col[:j] = (mu * prev[:j] - eps[:j, j - 1] * columns[j - 2][:j]) / eps[:j, j]
        if sink is not None:
            sink(j, col[: j + 1])
    return P if sink is None else None


@lru_cache(maxsize=4)
def _derivative_weights(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights of the d/dphi and d/dtheta rows of `_synth_values`, indexed like one of its rows.

    Returns (dphi, down, up).  cos(theta) d/dtheta Y_j^m = (j+1) eps_j^m
    Y_{j-1}^m - j eps_{j+1}^m Y_{j+1}^m: down[m w + j - 1] and up[m w + j]
    carry c_j^m to degree j-1 and to degree j+1, for orders m <= L and
    degrees j < w = `table_degree(L)` + 2, the row width of
    `_synth_values`, zero for j > L; they are laid out to multiply the
    coefficients shifted by one degree.  dphi[part, m, j] = (-m, m):
    d/dphi multiplies c_j^m by i m, so its real part is -m times the
    imaginary part and its imaginary part m times the real part.
    Read-only, since the cache hands the same arrays to every caller.
    """
    width = table_degree(L) + 2
    eps = _recurrence_eps(L + 1)[: L + 1]
    j = np.arange(L + 1)
    down = np.zeros((L + 1, width))
    up = np.zeros((L + 1, width))
    down[:, : L + 1] = (j + 1.0) * eps[:, : L + 1]
    up[:, : L + 1] = -j * eps[:, 1:]
    m = np.broadcast_to(np.arange(L + 1.0)[:, None], (L + 1, width))
    dphi = np.stack((-m, m))
    weights = (dphi, down.ravel()[1:], up.ravel()[:-1])
    for w in weights:
        w.setflags(write=False)
    return weights


def table_degree(L: int) -> int:
    """Degree of the Legendre table of a truncation-L grid: L + 1, or L + 2 for odd L.

    d/dtheta reaches degree L + 1.  The degree L' is odd, so that the
    orders pair up as m and L' - m (see `grid_tables`).
    """
    return L + 1 + L % 2


@lru_cache(maxsize=8)
def _fold_orders(L: int, L_out: int) -> np.ndarray:
    """The orders of the analysis matmul's Fourier columns on a table of degree L: (q, L - q) per pair q.

    Only the pairs with an order <= L_out are contracted; an order above
    L_out reads column L_out instead, and its output is never gathered.
    """
    pairs = np.arange(min((L + 1) // 2, L_out + 1))
    orders = np.minimum(np.stack((pairs, L - pairs), axis=1).ravel(), L_out)
    orders.setflags(write=False)
    return orders


@lru_cache(maxsize=8)
def _degree_slots(L: int, L_out: int) -> np.ndarray:
    """Where the analysis matmul leaves c_j^m, for m, j <= L_out, on a table of degree L.

    flat[m, j] indexes the flattened complex [pair, parity, slot, order
    of the pair] output at the slot that `grid_tables` gives degree j of
    order m.  A degree j < m maps to the unused odd slot of pair 0,
    where the table, and so the output, is zero.
    """
    h = (L + 1) // 2
    m, j = np.arange(L_out + 1)[:, None], np.arange(L_out + 1)
    d = j - m
    top = m >= h
    pair = np.where(top, L - m, m)
    slot = np.where(top, h - d // 2, d // 2)
    flat = ((2 * pair + d % 2) * (h + 1) + slot) * 2 + top
    flat[d < 0] = 2 * ((h + 1) + h)
    flat.setflags(write=False)
    return flat


class _GridWork:
    """A grid's entry in `_TABLE_CACHE`: its Legendre table and two work regions.

    The regions A and B are flat float arrays, allocated by the grid's
    first transform and grown, never shrunk, when a larger batch needs
    more.  Every stage of a transform reads one region and writes the
    other (`_Synthesis`, `_Analysis`, `operators.jacobian_tendency`), so
    a stepping run allocates nothing per call.  `views` holds the views
    of the regions that the stages run into, built once per batch shape
    by `_work_views`; growing a region drops them.  Nothing here may
    refer to the grid itself, or the weak-keyed cache would keep it.
    """

    __slots__ = ("table", "a", "b", "views")

    def __init__(self, table: np.ndarray):
        self.table = table
        self.a = self.b = np.empty(0)
        self.views: dict = {}

    def regions(self, a_size: int, b_size: int) -> tuple[np.ndarray, np.ndarray]:
        """A and B, holding at least a_size and b_size floats."""
        if a_size > self.a.size or b_size > self.b.size:
            self.a = np.empty(max(a_size, self.a.size))
            self.b = np.empty(max(b_size, self.b.size))
            self.views.clear()
        return self.a, self.b


_TABLE_CACHE: "weakref.WeakKeyDictionary[GridSpec, _GridWork]" = weakref.WeakKeyDictionary()


def grid_tables(spec: GridSpec) -> np.ndarray:
    """The grid's cached Legendre table: its northern nodes, degrees split by parity, orders folded in pairs.

    Gauss nodes come in pairs +-mu, and P_j^m(-mu) = (-1)^(j-m) P_j^m(mu),
    so the table holds only the ceil(n_lat/2) nodes with mu >= 0, in
    ascending order (the first is the equator when n_lat is odd).  Parity
    p = 0 holds the degrees with j - m even, whose part of a sum over j
    is even in mu, and p = 1 those with j - m odd, whose part is odd.
    So a transform contracts each parity once, at half the nodes, and
    forms the two hemispheres from the sum and difference of the parts.

    Order m has the L' + 1 - m degrees m..L', L' = `table_degree(spec.L)`
    (odd, h = (L'+1)/2), so orders m and L' - m together have h + 1
    degrees of even parity and h of odd parity.  They share one rectangle
    of h + 1 slots per parity (rectangular full packed storage): for
    pair q < h,

        table[q, p, i, k]     = N_j^m P_j^m(mu_k),  m = q,       j = m + 2i + p,
        table[q, p, h - i, k] = N_j^m P_j^m(mu_k),  m = L' - q,  j = m + 2i + p,

    order q filling the slots from the bottom and order L' - q from the
    top; the one slot left over, of parity 1, is zero.  Apart from that
    slot only the P_j^m with j >= m are stored: at L=170 the table takes
    15.3 MB (30.3 MB with every order padded to h slots, 61 MB over all
    nodes).

    `norm_legendre_table` runs at the northern nodes and hands each
    degree's column to a scatter into the folded slots, so no table-sized
    temporary is built.  The table is shared by every caller on `spec`,
    so it is read-only.
    """
    work = _TABLE_CACHE.get(spec)
    if work is None:
        L = table_degree(spec.L)
        h = (L + 1) // 2
        mu = spec.mu_nodes[spec.n_lat // 2:]
        table = np.zeros((h, 2, h + 1, mu.size))
        rows = table.reshape(-1, mu.size)
        step = 4 * (h + 1) - 1

        def scatter(j, column):
            # orders m = j - p - 2i of parity p: row (2m + p)(h + 1) + i
            # from the bottom for m < h, row (2(L - m) + p)(h + 1) + h - i
            # from the top for m >= h; both rows move by `step` per i
            for p in range(min(2, j + 1)):
                orders = column[j - p :: -2]
                top = max(0, (j - p - h) // 2 + 1)
                bottom = (2 * (j - p) + p) * (h + 1) - top * step
                rows[bottom::-step][: len(orders) - top] = orders[top:]
                rows[(2 * (L - j + p) + p) * (h + 1) + h :: step][:top] = orders[:top]

        norm_legendre_table(L, mu, sink=scatter)
        table.setflags(write=False)
        work = _TABLE_CACHE[spec] = _GridWork(table)
    return work.table


def _work_views(spec: GridSpec, key, build):
    """The views of spec's work regions for `key`: build(spec, work, key) on first use.

    The table is built through `grid_tables` on the grid's first transform.
    """
    work = _TABLE_CACHE.get(spec)
    if work is None:
        grid_tables(spec)
        work = _TABLE_CACHE[spec]
    views = work.views.get(key)
    if views is None:
        views = build(spec, work, key)
        work.views[key] = views
    return views


# --------------------------------------------------------------------------
# Spectral fields
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Coefficients c_j^m of a real field, stored as coeffs[m, j] for m >= 0.

    Entries with m > j are structurally zero.  c_j^0 must be real (reality
    of the represented field); `zero_mean` reports whether c_0^0 == 0.
    """

    L: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.coeffs.shape != (self.L + 1, self.L + 1):
            raise ValueError("coeffs must have shape (L+1, L+1)")

    @property
    def zero_mean(self) -> bool:
        return self.coeffs[0, 0] == 0.0

    def get(self, j: int, m: int) -> complex:
        """Coefficient c_j^m, negative m via the reality convention."""
        if abs(m) > j or j > self.L:
            raise ValueError(f"(j, m) = ({j}, {m}) out of range for L = {self.L}")
        if m >= 0:
            return complex(self.coeffs[m, j])
        return (-1) ** (-m) * np.conj(complex(self.coeffs[-m, j]))


def from_coeff_dict(L: int, entries: dict[tuple[int, int], complex]) -> SpectralField:
    """Build a field from {(j, m >= 0): c_j^m}; unspecified coefficients are 0."""
    C = np.zeros((L + 1, L + 1), dtype=complex)
    for (j, m), v in entries.items():
        if not (0 <= m <= j <= L):
            raise ValueError(f"invalid index (j, m) = ({j}, {m}) for L = {L}")
        C[m, j] = v
    return SpectralField(L=L, coeffs=C)


def pad_to(c: SpectralField, L: int) -> SpectralField:
    """Embed c into truncation degree L >= c.L (zero-padding)."""
    if L < c.L:
        raise ValueError(f"cannot pad L={c.L} down to {L}")
    if L == c.L:
        return c
    C = np.zeros((L + 1, L + 1), dtype=complex)
    C[: c.L + 1, : c.L + 1] = c.coeffs
    return SpectralField(L=L, coeffs=C)


def norm_l2(c: SpectralField) -> float:
    """L2 norm of the represented field (Parseval, both +/-m counted)."""
    return float(np.sqrt(inner_l2(c, c)))


def inner_l2(c1: SpectralField, c2: SpectralField) -> float:
    """L2 inner product of two real fields, computed spectrally."""
    L = min(c1.L, c2.L)
    a = c1.coeffs[: L + 1, : L + 1]
    b = c2.coeffs[: L + 1, : L + 1]
    prod = a * np.conj(b)
    total = prod[0].sum().real + 2.0 * prod[1:].sum().real
    return float(total)


# --------------------------------------------------------------------------
# Transform pair
# --------------------------------------------------------------------------


class _Analysis:
    """Views of a grid's work regions for `analyze` to degree L.

    The mirrored `pair` of rows goes to B, its `rfft` spectrum `fourier`
    to A, the quadrature's Fourier `columns` to B and its matmul output
    `products` to A.  The grid-size checks run here, once per grid and
    degree, since the grid's shape is fixed.
    """

    def __init__(self, spec: GridSpec, work: _GridWork, L: int):
        if spec.n_lat < L + 1:
            raise ValueError(f"n_lat={spec.n_lat} < L+1={L + 1}: undersized grid")
        if spec.n_lon < 2 * L + 1:
            raise ValueError(f"n_lon={spec.n_lon} < 2L+1={2 * L + 1}: undersized grid")
        if L > spec.L + 1:
            raise ValueError(f"analysis degree L={L} exceeds spec.L+1={spec.L + 1}, "
                             f"the largest the grid's table serves")
        table = work.table
        h, slots, n_north = table.shape[0], table.shape[2], table.shape[3]
        top, n_freq = 2 * h - 1, spec.n_lon // 2 + 1
        self.orders = _fold_orders(top, L)
        self.slots = _degree_slots(top, L)
        n_pairs = self.orders.size // 2
        pair, fourier = 2 * n_north * spec.n_lon, 4 * n_north * n_freq
        columns, products = 8 * n_north * n_pairs, 8 * n_pairs * slots
        a, b = work.regions(max(fourier, products), max(pair, columns))

        # [parity, northern node, longitude]: the sum and the difference of
        # the rows at mu and -mu, weighted; the equator row of an odd n_lat
        # enters once
        self.half, self.eq = half, eq = spec.n_lat // 2, spec.n_lat % 2
        self.pair = b[:pair].reshape(2, n_north, spec.n_lon)
        self.sum, self.difference = self.pair[0, eq:], self.pair[1, eq:]
        self.weights = spec.area_weights[half:, None]
        fourier = a[:fourier].view(complex).reshape(2, n_north, n_freq)
        self.fourier, self.low = fourier, fourier[..., : L + 1]
        # columns[pair, parity, node, (order of the pair, part)]
        self.columns = b[:columns].view(complex).reshape(2, n_north, 2 * n_pairs)
        columns = self.columns.view(float).reshape(2, n_north, n_pairs, 4)
        self.operands = (table[:n_pairs], columns.transpose(2, 0, 1, 3))
        self.products = a[:products].reshape(n_pairs, 2, slots, 4)
        self.coefficients = self.products.view(complex).reshape(-1)


def analyze(f: GridField, L: int) -> SpectralField:
    """Forward transform: c_j^m = integral of f * conj(Y_j^m) d_sigma.

    The rows of each mirrored pair of latitudes +-mu are summed and
    differenced and scaled by their quadrature weight, then transformed
    by a longitude discrete Fourier sum and the Legendre quadrature
    `_legendre_quadrature` against the grid's folded table, which
    serves any L <= spec.L + 1; a larger L raises ValueError.  Exact to
    roundoff for fields bandlimited to degree <= L.  Every stage runs in
    the grid's work regions (`_Analysis`); the coefficients returned are
    fresh.  The result is bitwise repeatable under the contract stated
    in `_synth_values` (fixed numpy/BLAS build and OPENBLAS_NUM_THREADS).
    """
    views = _work_views(f.spec, L, _Analysis)
    half, eq = views.half, views.eq
    north, south = f.values[half + eq:], f.values[half - 1 :: -1]
    np.add(north, south, out=views.sum)
    np.subtract(north, south, out=views.difference)
    if eq:
        views.pair[:, 0] = f.values[half]
    np.multiply(views.pair, views.weights, out=views.pair)
    np.fft.rfft(views.pair, axis=-1, out=views.fourier)
    C = _legendre_quadrature(views.low, views)
    # c_j^0 is real for real input; drop the quadrature's imaginary dust.
    C.imag[0] = 0.0
    return SpectralField(L=L, coeffs=C)


def _legendre_contract(C: np.ndarray, table: np.ndarray) -> np.ndarray:
    """G[m, n] = sum_i C[m, i] table[m, i, n] for complex C and a real table.

    The Legendre kernel of point evaluation, against a table of
    `norm_legendre_table`.  It runs in real arithmetic: the real and
    imaginary parts of C are stacked as two rows per m and contracted with
    one batched matmul, so the table is read once and never promoted to
    complex.
    """
    rows = np.stack((C.real, C.imag), axis=1)
    out = np.matmul(rows, table)
    return out[:, 0] + 1j * out[:, 1]


def _legendre_quadrature(F: np.ndarray, views: _Analysis) -> np.ndarray:
    """C[m, j] = sum_k N_j^m P_j^m(mu_k) F_k[m] over all n_lat nodes, from the folded table.

    F[p, q, m] holds the weighted Fourier rows F_k of the grid's mirrored
    nodes +-mu_q, as their sum (p = 0) and difference (p = 1); an equator
    node is its own mirror and enters both once.  P_j^m is even in mu
    when j - m is even and odd otherwise, so the sum is contracted with
    the grid's table (`grid_tables`) at its even parity and the
    difference at its odd parity.  Each pair's rectangle meets four real
    columns, the real and imaginary parts of both its orders' Fourier
    rows, in one batched real matmul; each order keeps the slots of its
    own degrees.  The columns and the matmul output lie in the grid's
    work regions (`_Analysis` of degree L); the C returned is fresh.
    Same determinism contract as `_synth_values`.
    """
    # the orders are in range, and mode="clip" lets take write unbuffered
    F.take(views.orders, axis=2, out=views.columns, mode="clip")
    np.matmul(*views.operands, out=views.products)
    return views.coefficients.take(views.slots)


M0_IMAG_RTOL = 1e-12


def _check_real_m0(C: np.ndarray) -> None:
    """Reject coefficients C[m, j] whose m = 0 row is not real.

    Synthesis keeps only the real part of the m = 0 Fourier mode, so an
    imaginary c_j^0 would vanish silently.  The bound is relative to the
    largest coefficient, so it means the same for tiny and huge fields.
    """
    if C[0].imag.any():
        imag0 = np.abs(C[0].imag).max()
        scale = np.abs(C).max()
        if imag0 > M0_IMAG_RTOL * scale:
            raise ValueError(f"m=0 synthesis has imaginary residue {imag0:.3e}, "
                             f"{imag0 / scale:.3e} of the largest coefficient")


@lru_cache(maxsize=4)
def _upper_triangle(L: int) -> np.ndarray:
    """Mask of the coefficient slots C[m, j] with j >= m; read-only."""
    mask = np.arange(L + 1) >= np.arange(L + 1)[:, None]
    mask.setflags(write=False)
    return mask


class _Synthesis:
    """Views of a grid's work regions for `_synth_values` of one batch shape, (len(Cs), kinds).

    The coefficient rows `values` and the d/dtheta recurrence's `product`
    go to A, the `_legendre_sums` `buffer` of each kind's rows to B, its
    block-diagonal `lhs` to A and the matmul output `sums` to B; the
    spectra H of `_hemisphere_spectra` to A and the irfft `grids` to B.
    Every operand view of those stages is made here, once.
    """

    def __init__(self, spec: GridSpec, work: _GridWork, key):
        nf, kinds = key
        for kind in kinds:
            if kind not in ("value", "dphi", "dtheta"):
                raise ValueError(f"unknown synthesis kind {kind!r}")
        L, n_lat, n_lon = spec.L, spec.n_lat, spec.n_lon
        self.table = table = work.table
        h, slots, n_north = table.shape[0], table.shape[2], table.shape[3]
        top = 2 * h - 1
        nk, n_grids, n_freq = len(kinds), len(kinds) * nf, n_lon // 2 + 1
        # rows[kind, (field, real or imaginary part), m, j] for degrees
        # j <= L' + 1, zero past each kind's top degree, and orders m <= L;
        # each kind's block ends in zero orders up to L' + 1.  values[(field,
        # part), m, j] are the coefficients, zero for j < m.
        width, R = top + 2, 2 * nk * nf
        block = (top + 2) * width
        values = 2 * nf * (L + 1) * width
        lhs, sums = 4 * h * R * slots, 4 * h * R * n_north
        spectra, grids = 2 * n_grids * n_lat * n_freq, n_grids * n_lat * n_lon
        a, b = work.regions(max(2 * values, lhs, spectra), max(R * block, sums, grids))

        self.buffer = b[: R * block]
        rows = self.buffer.reshape(nk, 2 * nf, top + 2, width)[:, :, : L + 1]
        self.values = a[:values].reshape(2 * nf, L + 1, width)
        self.coefficients = [self.values[2 * i : 2 * i + 2, :, : L + 1] for i in range(nf)]
        self.imag0 = self.values[1::2, 0]
        # each row's orders laid end to end, so a shift by one degree
        # crosses into the next order only where the weight is zero
        flat = self.values.reshape(2 * nf, -1)
        self.product = a[values : 2 * values].reshape(2 * nf, -1)[:, :-1]
        # (kind, its rows, what they are computed from)
        self.kinds = []
        for g, kind in enumerate(kinds):
            if kind == "dphi":
                # the parts swapped, then scaled by -m and m
                pairs = (nf, 2, L + 1, width)
                source = self.values.reshape(pairs)[:, ::-1]
                self.kinds.append((kind, rows[g].reshape(pairs), source))
            elif kind == "dtheta":
                derivs = rows[g].reshape(2 * nf, -1)
                self.kinds.append((kind, (derivs[:, :-1], derivs[:, 1:]),
                                   (flat[:, 1:], flat[:, :-1])))
            else:
                self.kinds.append((kind, rows[g], self.values))

        # Read rows[r, q, q + 2i + p] as first[q, p, r, i] and rows[r, L'-q,
        # L'-q + 2(h-i) + p] as second[q, p, r, i]: strided views, since the
        # offsets are linear in (q, p, r, i).  Past a row's end they read the
        # next row's slots j < m, which hold zeros, or a zero order.
        item = b.itemsize
        shape = (h, 2, R, slots)
        first = np.ndarray(shape, float, b, 0,
                           ((width + 1) * item, item, block * item, 2 * item))
        second = np.ndarray(shape, float, b, (top * (width + 1) + 2 * h) * item,
                            (-(width + 1) * item, item, block * item, -2 * item))
        lhs = a[:lhs].reshape(h, 2, 2, R, slots)
        self.blocks = ((lhs[:, :, 0], first), (lhs[:, :, 1], second))
        self.lhs = lhs.reshape(h, 2, 2 * R, slots)
        self.sums = b[:sums].reshape(h, 2, 2 * R, n_north)

        # A northern row of H is the even part plus the odd part, and its
        # mirror image the even part minus the odd part; orders 0..h-1
        # come from the first order of each pair of sums[pair, parity,
        # order of the pair, (kind, field), part, northern node], orders
        # L..h from the second; the orders above L are zero.  H as floats
        # [m, (kind, field), part, latitude], from the northern rows up and
        # from the southern rows down; an equator node has no odd part.
        H = a[:spectra].view(complex).reshape(n_grids, n_lat, n_freq)
        self.spectra, self.high = H, H[..., L + 1:]
        half, eq = n_lat // 2, n_lat % 2
        lat = n_freq * 2 * item
        strides = (2 * item, n_lat * lat, item, lat)
        north = np.ndarray((L + 1, n_grids, 2, n_lat - half), float, a, half * lat, strides)
        south = np.ndarray((L + 1, n_grids, 2, half), float, a, (half - 1) * lat,
                           strides[:3] + (-lat,))
        parts = self.sums.reshape(h, 2, 2, n_grids, 2, n_north)
        self.hemispheres = []
        for i, pairs, orders in ((0, slice(0, h), slice(0, h)),
                                 (1, slice(2 * h - 1 - L, h), slice(L, h - 1, -1))):
            even, odd = parts[pairs, 0, i], parts[pairs, 1, i]
            self.hemispheres.append((even, odd, north[orders],
                                     even[..., eq:], odd[..., eq:], south[orders]))

        self.grids = b[:grids].reshape(nk, nf, n_lat, n_lon)
        self.signals = self.grids.reshape(n_grids, n_lat, n_lon)
        self.dtheta = self.grids[kinds.index("dtheta")] if "dtheta" in kinds else None
        self.sec_theta = spec.sec_theta[:, None]


def _synth_values(Cs, spec: GridSpec, kinds: tuple[str, ...]) -> np.ndarray:
    """Grids of each kind for each coefficient array C[m, j] (m, j <= spec.L) in Cs.

    Returns shape (len(kinds), len(Cs), n_lat, n_lon), in the grid's
    work region B: the grids are overwritten by the grid's next
    transform, so a caller that keeps them copies them.  A kind is
    "value" (the field), "dphi" (i m times the value spectrum) or
    "dtheta".  For d/dtheta the coefficients are recombined with
    `_derivative_weights` into those of cos(theta) d/dtheta, which reach
    degree L + 1, and the grid is divided by cos(theta) (Gauss nodes
    exclude the poles).

    Each kind's coefficients become 2 real rows per field (real and
    imaginary part).  For each pair of orders m and L' - m of the folded
    table (`grid_tables`) and each parity, the rows of order m, in its
    slot order and zero on the slots of L' - m, stand above those of
    order L' - m, zero on the slots of m, and one batched real matmul
    contracts this block-diagonal left side with the table at the
    northern nodes, so each rectangle is read once.  The field at a
    northern node is the even part plus the odd part, and at its mirror
    image -mu the even part minus the odd part (an equator node has no
    odd part); both are written into the spectrum of one irfft.  The
    slots C[m, j < m] are never read.  Every stage reads one of the
    grid's two work regions and writes the other (`_Synthesis`), so
    nothing is allocated per call.

    Determinism: the Legendre sum is a BLAS matmul, so the output is
    bitwise repeatable for the same inputs on one numpy/BLAS build with
    OPENBLAS_NUM_THREADS fixed.  BLAS does not promise the same bits
    across thread counts (OpenBLAS 0.3.31 gave them with 1 and 2 threads
    at L = 21, 90 and 170); pin the variable where bits are compared.
    `analyze` and `eval_point` share this contract.
    """
    views = _work_views(spec, (len(Cs), kinds), _Synthesis)
    _legendre_sums(Cs, spec.L, views)
    _hemisphere_spectra(views)
    np.fft.irfft(views.spectra, n=spec.n_lon, axis=-1, norm="forward", out=views.signals)
    if views.dtheta is not None:
        np.multiply(views.dtheta, views.sec_theta, out=views.dtheta)
    return views.grids


def _legendre_sums(Cs, L: int, views: _Synthesis) -> None:
    """The even and odd Legendre sums of `_synth_values` at the northern nodes.

    Leaves sums[pair, parity, (order of the pair, kind, field, part),
    northern node] in `views.sums` for the pairs of orders (q, L' - q) of
    the folded table.  The buffer and the coefficient rows are zeroed
    first: the regions hold other stages' data, and the buffer's zero
    orders and the last slot of a d/dtheta row, which the recurrence only
    adds to, are never written otherwise.
    """
    views.buffer.fill(0.0)
    views.values.fill(0.0)
    upper = _upper_triangle(L)
    for C, slots in zip(Cs, views.coefficients):
        np.copyto(slots, C[..., None].view(float).transpose(2, 0, 1), where=upper)
    if views.imag0.any():
        for C in Cs:
            _check_real_m0(C)
    dphi, down, up = _derivative_weights(L)
    for kind, rows, values in views.kinds:
        if kind == "value":
            rows[...] = values
        elif kind == "dphi":
            np.multiply(values, dphi, out=rows)
        else:
            np.multiply(down, values[0], out=rows[0])
            np.multiply(up, values[1], out=views.product)
            np.add(rows[1], views.product, out=rows[1])
    for lhs, block in views.blocks:
        lhs[...] = block
    np.matmul(views.lhs, views.table, out=views.sums)


def _hemisphere_spectra(views: _Synthesis) -> None:
    """The irfft input H[(kind, field), latitude, m] of `_synth_values`, from its Legendre sums.

    Leaves H in `views.spectra` (see `_Synthesis` for its rows).  Its
    orders above L are zeroed, since the region holds other stages' data.
    (An irfft of the orders up to L only, padded by numpy, gives the same
    bits but took 1.5 times as long at L = 90 and 170.)
    """
    views.high.fill(0.0)
    for even, odd, north, even_south, odd_south, south in views.hemispheres:
        np.add(even, odd, out=north)
        np.subtract(even_south, odd_south, out=south)


def _synth_streamed(C: np.ndarray, spec: GridSpec) -> np.ndarray:
    """The grid values of the coefficients C[m, j], with no Legendre table.

    The same sum as `_synth_values` in the same conventions, for a grid
    that is synthesized on too seldom to pay for a table: the Legendre
    recurrence is streamed through the sums (`_streamed_spectrum`).  The
    sums are freed before the irfft's output is allocated.
    """
    return np.fft.irfft(_streamed_spectrum(C, spec), n=spec.n_lon, axis=-1, norm="forward")


def _streamed_spectrum(C: np.ndarray, spec: GridSpec) -> np.ndarray:
    """The irfft input H[latitude, m] of `_synth_streamed`.

    `norm_legendre_table` runs once at the northern nodes, and its sink
    adds each degree j's column, for every order m <= j, into the
    Legendre sum of the degrees of j's parity.  The row at a northern
    node mu is the sum of the two, and the row at -mu is (-1)^m times
    their difference, since P_j^m(-mu) = (-1)^(j-m) P_j^m(mu); an
    equator row comes once.  The slots C[m, j < m] are never read.
    """
    C = np.asarray(C, dtype=complex)
    L = C.shape[1] - 1
    _check_real_m0(C)
    half, eq = spec.n_lat // 2, spec.n_lat % 2
    mu = spec.mu_nodes[half:]
    parts = C[..., None].view(float)
    # sums[j % 2, m, part, northern node]: the degrees j of each parity
    sums = np.zeros((2, L + 1, 2, mu.size))

    def accumulate(j, column):
        sums[j % 2, : j + 1] += parts[: j + 1, j, :, None] * column[:, None, :]

    norm_legendre_table(L, mu, sink=accumulate)
    even_j, odd_j = sums.transpose(0, 3, 1, 2)
    # H holds the orders m <= L only, each written below, and the irfft
    # pads the rest with zeros: at L=90 H takes 0.46 MB instead of 1.6 MB,
    # for an irfft about 1.5 times as slow, and this path exists to keep
    # memory down
    H = np.empty((spec.n_lat, L + 1), dtype=complex)
    # H as floats [latitude, m, part]; the southern rows from the equator down
    spectrum = H.view(float).reshape(spec.n_lat, -1, 2)
    south = spectrum[half - 1 :: -1]
    np.add(even_j, odd_j, out=spectrum[half:])
    np.subtract(even_j[eq:], odd_j[eq:], out=south)
    south[:, 1::2] *= -1.0
    return H


def _grid_coeffs(c: SpectralField, spec: GridSpec) -> np.ndarray:
    if spec.L < c.L:
        raise ValueError(f"grid truncation {spec.L} < field truncation {c.L}")
    return pad_to(c, spec.L).coeffs


def synthesize(c: SpectralField, spec: GridSpec) -> GridField:
    """Inverse transform: pointwise sum of c_j^m Y_j^m on the grid."""
    values = _synth_values([_grid_coeffs(c, spec)], spec, ("value",))[0, 0].copy()
    return GridField(values=values, spec=spec)


# synthesize_dtheta and synthesize_dphi are the oracle pair of
# synthesize_gradients, and the benchmark traces them
def synthesize_dtheta(c: SpectralField, spec: GridSpec) -> GridField:
    """d/dtheta of the field represented by c, evaluated on the grid."""
    values = _synth_values([_grid_coeffs(c, spec)], spec, ("dtheta",))[0, 0].copy()
    return GridField(values=values, spec=spec)


def synthesize_dphi(c: SpectralField, spec: GridSpec) -> GridField:
    """d/dphi of the field represented by c (spectral: multiply by i*m)."""
    values = _synth_values([_grid_coeffs(c, spec)], spec, ("dphi",))[0, 0].copy()
    return GridField(values=values, spec=spec)


def synthesize_gradients(fields, spec: GridSpec) -> np.ndarray:
    """d/dphi and d/dtheta grids of several fields from one Legendre contraction.

    Returns G of shape (2, len(fields), n_lat, n_lon) with G[0, i] the
    d/dphi and G[1, i] the d/dtheta grid of fields[i]: the same values as
    `synthesize_dphi` and `synthesize_dtheta`, from one batched matmul of
    4 rows per field and one irfft.  G is the caller's own copy.
    """
    return _gradient_grids(fields, spec).copy()


def _gradient_grids(fields, spec: GridSpec) -> np.ndarray:
    """`synthesize_gradients` in the grid's work region B, valid until its next transform."""
    return _synth_values([_grid_coeffs(c, spec) for c in fields], spec, ("dphi", "dtheta"))


def eval_point(c: SpectralField, phi, theta):
    """Evaluate the field at arbitrary points (phi, theta), poles allowed.

    Same sum as `synthesize`; phi, theta may be scalars or equally shaped
    arrays.  Returns a float for scalar input.
    """
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    phi_b, theta_b = np.broadcast_arrays(phi_arr, theta_arr)
    shape = phi_b.shape
    mu = np.sin(theta_b.ravel())
    _check_real_m0(c.coeffs)
    G = _legendre_contract(c.coeffs, norm_legendre_table(c.L, mu))
    vals = G[0].real.copy()
    for m in range(1, c.L + 1):
        vals += 2.0 * np.real(G[m] * np.exp(1j * m * phi_b.ravel()))
    out = vals.reshape(shape)
    if np.isscalar(phi) and np.isscalar(theta):
        return float(out.reshape(-1)[0])
    return out


# --------------------------------------------------------------------------
# Degree-2 real basis (a, b, c, d, e)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class E2Coeffs:
    """Real coordinates of a degree-2 field in the basis
    {3 sin^2(theta) - 1, sin(2 theta) cos(phi), sin(2 theta) sin(phi),
     cos^2(theta) cos(2 phi), cos^2(theta) sin(2 phi)}.
    """

    a: float
    b: float
    c: float
    d: float
    e: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.e)


_K20 = float(np.sqrt(16.0 * np.pi / 5.0))   # 3 sin^2 - 1 = K20 * Y_2^0
_K2M = float(np.sqrt(8.0 * np.pi / 15.0))   # scale of the |m| = 1, 2 entries


def e2_to_spectral(y: E2Coeffs, L: int = 2) -> SpectralField:
    """Exact change of basis (a, b, c, d, e) -> {c_2^m}."""
    if L < 2:
        raise ValueError("need L >= 2 for a degree-2 field")
    return from_coeff_dict(L, {
        (2, 0): y.a * _K20,
        (2, 1): (-y.b + 1j * y.c) * _K2M,
        (2, 2): (y.d - 1j * y.e) * _K2M,
    })


def spectral_to_e2(c: SpectralField, tol: float = 1e-10) -> E2Coeffs:
    """Inverse change of basis; rejects fields with content outside degree 2."""
    total = inner_l2(c, c)
    c20 = c.get(2, 0)
    c21 = c.get(2, 1)
    c22 = c.get(2, 2)
    deg2 = abs(c20) ** 2 + 2.0 * abs(c21) ** 2 + 2.0 * abs(c22) ** 2
    if total > 0 and (total - deg2) > tol * total:
        raise ValueError(
            f"field has {(total - deg2) / total:.3e} relative energy outside degree 2"
        )
    return E2Coeffs(
        a=c20.real / _K20,
        b=-c21.real / _K2M,
        c=c21.imag / _K2M,
        d=c22.real / _K2M,
        e=-c22.imag / _K2M,
    )


# --------------------------------------------------------------------------
# Text serialization
# --------------------------------------------------------------------------


def save_spectral(c: SpectralField, path) -> None:
    """Write the text format: 'L <int>' then 'j m re im' per stored coefficient."""
    with open(path, "w") as fh:
        fh.write(f"L {c.L}\n")
        for j in range(c.L + 1):
            for m in range(j + 1):
                v = c.coeffs[m, j]
                fh.write(f"{j} {m} {v.real:.17g} {v.imag:.17g}\n")


def load_spectral(path) -> SpectralField:
    """Read the `save_spectral` text format, rejecting malformed lines.

    Each coefficient line must hold four fields 'j m re im' with
    0 <= m <= j <= L, finite values, a zero imaginary part for m = 0
    (the field is real), and no (j, m) given twice; a violation raises
    ValueError naming the line.  Missing coefficients are zero.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "L" or not header[1].isdigit():
            raise ValueError(f"bad spectral file header: {header}, expected 'L <int>'")
        L = int(header[1])
        C = np.zeros((L + 1, L + 1), dtype=complex)
        seen = set()
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            where = f"spectral file line {lineno} ({line.strip()!r})"
            if len(fields) != 4:
                raise ValueError(f"{where}: expected 4 fields 'j m re im', got {len(fields)}")
            try:
                j, m = int(fields[0]), int(fields[1])
                v = complex(float(fields[2]), float(fields[3]))
            except ValueError:
                raise ValueError(f"{where}: fields are not 'int int float float'") from None
            if not 0 <= m <= j <= L:
                raise ValueError(f"{where}: (j, m) = ({j}, {m}) needs 0 <= m <= j <= L = {L}")
            if (j, m) in seen:
                raise ValueError(f"{where}: duplicate coefficient (j, m) = ({j}, {m})")
            if not np.isfinite(v):
                raise ValueError(f"{where}: non-finite value")
            if m == 0 and v.imag != 0.0:
                raise ValueError(f"{where}: m = 0 coefficient of a real field has "
                                 f"imaginary part {v.imag:g}")
            seen.add((j, m))
            C[m, j] = v
    return SpectralField(L=L, coeffs=C)


def default_grid(L: int) -> GridSpec:
    """Dealiased default grid for truncation degree L."""
    return build_grid(L)
