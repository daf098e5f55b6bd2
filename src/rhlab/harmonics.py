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

from dataclasses import dataclass, field

import numpy as np

from .grid import MAX_L, GridSpec, build_grid, check_shape

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


def _dtheta_recurrence(L: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(theta) d/dtheta Y_j^m = down[m, j] Y_{j-1}^m + up[m, j] Y_{j+1}^m for m, j <= L,
    (down, up)[m, j] = ((j+1) eps_j^m, -j eps_{j+1}^m)."""
    eps = _recurrence_eps(L + 1)[: L + 1]
    j = np.arange(L + 1)
    return (j + 1.0) * eps[:, : L + 1], -j * eps[:, 1:]


def _dtheta_weights(L: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """`_dtheta_recurrence` laid out for the d/dtheta rows of `_synth_values`, indexed like one of its rows.

    down[m w + j - 1] and up[m w + j] carry c_j^m to degrees j-1 and j+1,
    for orders m <= L and degrees j < w = width, the rows' width, zero
    for j > L: they multiply the coefficients shifted by one degree.
    """
    down, up = np.zeros((2, L + 1, width))
    down[:, : L + 1], up[:, : L + 1] = _dtheta_recurrence(L)
    return down.ravel()[1:], up.ravel()[:-1]


def table_degree(L: int) -> int:
    """Degree of the Legendre table of a truncation-L grid: L + 1, or L + 2 for odd L.

    d/dtheta reaches degree L + 1.  The degree L' is odd, so that the
    orders pair up as m and L' - m (see `grid_tables`).
    """
    return L + 1 + L % 2


def _slot_map(L: int) -> np.ndarray:
    """Where the folded table of degree L (`grid_tables`) keeps degree j of order m, for m, j <= L.

    flat[m, j] = 2 r + t: r is the table row (pair, parity, slot)
    flattened, and t = 0 for the pair's first order q, 1 for its second
    order L - q.  So flat indexes the complex output of the analysis
    matmul, [pair, parity, slot, order of the pair], whose row r holds
    both orders' sums against table row r.  A degree j < m maps to the
    unused odd slot of pair 0, where the table is zero.
    """
    h = (L + 1) // 2
    m, j = np.arange(L + 1)[:, None], np.arange(L + 1)
    d = j - m
    top = m >= h
    pair = np.where(top, L - m, m)
    slot = np.where(top, h - d // 2, d // 2)
    flat = ((2 * pair + d % 2) * (h + 1) + slot) * 2 + top
    flat[d < 0] = 2 * ((h + 1) + h)
    return flat


class _GridWork:
    """A grid's Legendre table, the table's `_slot_map` and two work regions, kept by the grid.

    `grid_tables` stores it in the grid's instance dict, under "_work",
    as `cached_property` stores the grid's arrays, so it lives exactly
    as long as the grid.  The regions A and B are flat float arrays,
    allocated by the grid's first transform and grown, never shrunk,
    when a larger batch needs more.  Every stage of a transform reads
    one region and writes the other (`_Synthesis`, `_Analysis`,
    `operators._jacobian_coeffs`), so a coupled stepping run allocates nothing
    per call.  `views` holds the views of the regions that the stages
    run into, built once per batch shape by `_work_views`; growing a
    region drops them.
    """

    __slots__ = ("table", "slots", "a", "b", "views")

    def __init__(self, table: np.ndarray, slots: np.ndarray):
        self.table, self.slots = table, slots
        self.a = self.b = np.empty(0)
        self.views: dict = {}

    def regions(self, a_size: int, b_size: int) -> tuple[np.ndarray, np.ndarray]:
        """A and B, holding at least a_size and b_size floats."""
        if a_size > self.a.size or b_size > self.b.size:
            self.a = np.empty(max(a_size, self.a.size))
            self.b = np.empty(max(b_size, self.b.size))
            self.views.clear()
        return self.a, self.b


def grid_tables(spec: GridSpec) -> np.ndarray:
    """The grid's Legendre table, built once: its northern nodes, degrees split by parity, orders folded in pairs.

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
    degree's column to a scatter through the slot map `_slot_map(L')`,
    kept with the table in the grid's `_GridWork`, so no table-sized
    temporary is built.  Every caller on `spec` shares it: read-only.
    """
    work = vars(spec).get("_work")
    if work is None:
        L = table_degree(spec.L)
        h = (L + 1) // 2
        mu = spec.mu_nodes[spec.n_lat // 2:]
        table = np.zeros((h, 2, h + 1, mu.size))
        rows = table.reshape(-1, mu.size)
        slots = _slot_map(L)

        def scatter(j, column):
            rows[slots[: j + 1, j] // 2] = column

        norm_legendre_table(L, mu, sink=scatter)
        table.setflags(write=False)
        work = vars(spec)["_work"] = _GridWork(table, slots)
    return work.table


def _order_rows(spec: GridSpec, recurrence, m: int) -> tuple[np.ndarray, np.ndarray]:
    """N_j^m P_j^m and its d/dtheta at the northern nodes of spec, for degrees j <= spec.L.

    Two (spec.L + 1, ceil(n_lat / 2)) arrays, zero for j < m, at the
    nodes mu >= 0 in ascending order (the equator first when n_lat is
    odd), as the grid's folded table (`grid_tables`) holds them: they
    are its rows for order m, read through its slot map.  The southern
    nodes follow by parity, P_j^m(-mu) = (-1)^(j-m) P_j^m(mu), and
    d/dtheta P_j^m has the opposite parity.  d/dtheta is row m of
    `recurrence`, `_dtheta_recurrence(spec.L)`, divided by cos(theta),
    so it reads the table's degree spec.L + 1.  No BLAS call is made.
    """
    table = grid_tables(spec)
    L = spec.L
    values = table.reshape(-1, table.shape[-1])[vars(spec)["_work"].slots[m, : L + 2] // 2]
    down, up = (r[m, :, None] for r in recurrence)
    dtheta = up * values[1:]
    dtheta[1:] += down[1:] * values[:L]
    dtheta *= spec.sec_theta[spec.n_lat // 2 :]
    return values[: L + 1], dtheta


def _work_views(spec: GridSpec, key, build):
    """The views of spec's work regions for `key`: build(spec, work, key) on first use."""
    if "_work" not in vars(spec):
        grid_tables(spec)  # the grid's first transform builds its table
    work = vars(spec)["_work"]
    views = work.views.get(key)
    if views is None:
        views = build(spec, work, key)
        work.views[key] = views
    return views


# --------------------------------------------------------------------------
# Spectral fields
# --------------------------------------------------------------------------


M0_IMAG_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Coefficients c_j^m of a real field, stored as coeffs[m, j] for m >= 0.

    Building one stores a complex copy of coeffs, out of the caller's
    reach, and checks, once, what the transforms and distances rely on:
    it raises ValueError unless coeffs has shape (L+1, L+1), is finite,
    is exactly 0 in the structural-zero slots m > j, and has each c_j^0
    real to within M0_IMAG_RTOL of the largest coefficient (a non-finite
    imaginary part counts as a residue).  rhlab's own results keep this
    by construction and are built unchecked, and uncopied, by `_field`.
    `zero_mean` reports whether c_0^0 == 0.
    """

    L: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        # synthesis reads coeffs as complex pairs
        C = np.array(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", C)
        if self.L < 0 or C.shape != (self.L + 1, self.L + 1):
            raise ValueError("coeffs must have shape (L+1, L+1)")
        if not (np.isfinite(C[1:]).all() and np.isfinite(C[0].real).all()):
            raise ValueError("coeffs must be finite")
        residue = float(np.abs(C[0].imag).max())
        if residue != 0.0:
            scale = float(np.abs(C).max())
            if not np.isfinite(residue) or residue > M0_IMAG_RTOL * scale:
                raise ValueError(f"m=0 coefficients have imaginary residue {residue:.3e}, "
                                 f"{residue / scale:.3e} of the largest coefficient")
        stray = np.tril(C, -1)
        if stray.any():
            m, j = np.argwhere(stray)[0]
            raise ValueError(f"nonzero coefficient in the structural-zero slot "
                             f"(j, m) = ({j}, {m}), m > j")

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


def _field(L: int, C: np.ndarray) -> SpectralField:
    """A SpectralField of C without the check: for results valid by construction."""
    f = object.__new__(SpectralField)
    vars(f).update(L=L, coeffs=C)
    return f


def from_coeff_dict(L: int, entries: dict[tuple[int, int], complex]) -> SpectralField:
    """Build a field from {(j, m >= 0): c_j^m}; unspecified coefficients are 0."""
    C = np.zeros((L + 1, L + 1), dtype=complex)
    for (j, m), v in entries.items():
        if not (0 <= m <= j <= L):
            raise ValueError(f"invalid index (j, m) = ({j}, {m}) for L = {L}")
        C[m, j] = v
    return SpectralField(L=L, coeffs=C)


def top_degree(c: SpectralField) -> int:
    """Largest degree with a nonzero coefficient (0 for the zero field)."""
    nonzero = np.flatnonzero(np.any(c.coeffs != 0.0, axis=0))
    return int(nonzero[-1]) if nonzero.size else 0


def norm_l2(c: SpectralField) -> float:
    """L2 norm of the represented field (Parseval, both +/-m counted)."""
    return float(np.sqrt(inner_l2(c, c)))


def degree_power(c: SpectralField) -> np.ndarray:
    """Per degree j, the squared L2 norm of c's degree-j part: sum over m of |c_j^m|^2, both +/-m counted."""
    power = np.abs(c.coeffs) ** 2
    power[1:] *= 2.0  # both +/-m
    return power.sum(axis=0)


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
    """Views of a grid's work regions for `analyze`, one set per grid.

    The mirrored `pair` of rows goes to B, its `rfft` spectrum `fourier`
    to A, the quadrature's Fourier `columns` to B and its matmul output
    `products` to A.  `orders` are the orders (q, L' - q) of each of the
    table's h pairs; an order above spec.L reads column spec.L, and is
    never gathered.  `slots` is a contiguous copy of the grid's slot map
    for m, j <= spec.L, which `take` reads without copying it on every
    call.
    """

    def __init__(self, spec: GridSpec, work: _GridWork, key):
        table = work.table
        h, slots, n_north = table.shape[0], table.shape[2], table.shape[3]
        L, top, n_freq = spec.L, 2 * h - 1, spec.n_lon // 2 + 1
        pairs = np.arange(h)
        self.orders = np.minimum(np.stack((pairs, top - pairs), axis=1).ravel(), L)
        self.slots = np.ascontiguousarray(work.slots[: L + 1, : L + 1])
        pair, fourier = 2 * n_north * spec.n_lon, 4 * n_north * n_freq
        columns, products = 8 * n_north * h, 8 * h * slots
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
        self.columns = b[:columns].view(complex).reshape(2, n_north, 2 * h)
        columns = self.columns.view(float).reshape(2, n_north, h, 4)
        self.operands = (table, columns.transpose(2, 0, 1, 3))
        self.products = a[:products].reshape(h, 2, slots, 4)
        self.coefficients = self.products.view(complex).reshape(-1)


def analyze(values: np.ndarray, spec: GridSpec) -> SpectralField:
    """Forward transform: c_j^m = integral of f * conj(Y_j^m) d_sigma, f the values on spec.

    values must have the grid's shape (`grid.check_shape`); the field
    returned has the grid's degree, spec.L.  The rows of each mirrored
    pair of latitudes +-mu are summed and differenced and scaled by their
    quadrature weight, then transformed by a longitude discrete Fourier
    sum and the Legendre quadrature `_legendre_quadrature` against the
    grid's folded table.  Exact to roundoff for fields bandlimited to
    degree <= spec.L.  The stepping path calls `_analyze`, without the
    check and the field object.  Every stage runs in the grid's work
    regions (`_Analysis`); the coefficients returned are fresh.  The
    result is bitwise repeatable under the contract stated in
    `_synth_values` (fixed numpy/BLAS build and OPENBLAS_NUM_THREADS).
    """
    check_shape(values, spec)
    return _field(spec.L, _analyze(values, spec))


def _analyze(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """`analyze` of the grid values `values` on `spec`: the coefficient array C[m, j], fresh."""
    views = _work_views(spec, "analysis", _Analysis)
    half, eq = views.half, views.eq
    north, south = values[half + eq:], values[half - 1 :: -1]
    np.add(north, south, out=views.sum)
    np.subtract(north, south, out=views.difference)
    if eq:
        views.pair[:, 0] = values[half]
    np.multiply(views.pair, views.weights, out=views.pair)
    np.fft.rfft(views.pair, axis=-1, out=views.fourier)
    C = _legendre_quadrature(views.low, views)
    # c_j^0 is real for real input; drop the quadrature's imaginary dust.
    C.imag[0] = 0.0
    return C


def _legendre_quadrature(F: np.ndarray, views: _Analysis) -> np.ndarray:
    """C[m, j] = sum_k N_j^m P_j^m(mu_k) F_k[m] over all n_lat nodes, from the folded table.

    F[p, q, m] holds the weighted Fourier rows F_k of the grid's mirrored
    nodes +-mu_q, as their sum (p = 0) and difference (p = 1); an equator
    node is its own mirror and enters both once.  P_j^m is even in mu
    when j - m is even and odd otherwise, so the sum is contracted with
    the grid's table (`grid_tables`) at its even parity and the
    difference at its odd parity.  Each pair's rectangle meets four real
    columns, the real and imaginary parts of both its orders' Fourier
    rows, in one batched real matmul, and C is gathered from its output
    through the grid's slot map.  The columns and the matmul output lie in
    the grid's work regions (`_Analysis`); C is fresh.
    Same determinism contract as `_synth_values`.
    """
    # the orders are in range, and mode="clip" lets take write unbuffered
    F.take(views.orders, axis=2, out=views.columns, mode="clip")
    np.matmul(*views.operands, out=views.products)
    return views.coefficients.take(views.slots)


class _Synthesis:
    """Views of a grid's work regions for `_synth_values` of one batch shape, (len(Cs), kinds).

    The coefficient rows `values` and the d/dtheta recurrence's `product`
    go to A, the `_legendre_sums` `buffer` of each kind's rows to B, its
    block-diagonal `lhs` to A and the matmul output `sums` to B; the
    spectra H of `_hemisphere_spectra` to A and the irfft `grids` to B.
    Every operand view of those stages, and the derivative weights, are
    made here, once.  The left side's strided views `first` and `second`
    put each (m, j) where the grid's slot map does; a gather through the
    map was slower at every L measured, and a test ties the two together.
    """

    def __init__(self, spec: GridSpec, work: _GridWork, key):
        nf, kinds = key
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
        # each row's orders laid end to end, so a shift by one degree
        # crosses into the next order only where the weight is zero
        flat = self.values.reshape(2 * nf, -1)
        self.product = a[values : 2 * values].reshape(2 * nf, -1)[:, :-1]
        # (kind, its rows, what they are computed from, the weights)
        self.kinds = []
        for g, kind in enumerate(kinds):
            if kind == "dphi":
                # d/dphi multiplies c_j^m by i m: the parts swapped, then
                # scaled by -m and m
                pairs = (nf, 2, L + 1, width)
                m = np.broadcast_to(np.arange(L + 1.0)[:, None], (L + 1, width))
                self.kinds.append((kind, rows[g].reshape(pairs),
                                   self.values.reshape(pairs)[:, ::-1], np.stack((-m, m))))
            elif kind == "dtheta":
                derivs = rows[g].reshape(2 * nf, -1)
                self.kinds.append((kind, (derivs[:, :-1], derivs[:, 1:]),
                                   (flat[:, 1:], flat[:, :-1]), _dtheta_weights(L, width)))
            else:
                self.kinds.append((kind, rows[g], self.values, None))

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
        low = H[..., : L + 1].view(float).reshape(n_grids, n_lat, L + 1, 2)
        north = low[:, half:].transpose(2, 0, 3, 1)
        south = low[:, half - 1 :: -1].transpose(2, 0, 3, 1)
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
    """Grids of each kind for each SpectralField coefficient array C[m, j] in Cs.

    Each C must have the grid's degree, spec.L; one of another degree
    raises ValueError naming both.  Returns shape
    (len(kinds), len(Cs), n_lat, n_lon), in the grid's work region B: the
    grids are overwritten by the grid's next transform, so a caller that
    keeps them copies them.  A kind is "value" (the field), "dphi" (i m
    times the value spectrum) or "dtheta".  For d/dtheta the
    coefficients are recombined with `_dtheta_weights` into those of
    cos(theta) d/dtheta, which reach degree L + 1, and the grid is
    divided by cos(theta) (Gauss nodes exclude the poles).

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
    left side's views read the zeros of C[m, j < m], and the irfft drops
    the imaginary part of c_j^0; `SpectralField` guarantees both.  Every
    stage reads one of the grid's two work regions and writes the other
    (`_Synthesis`), so nothing is allocated per call.

    Determinism: the Legendre sum is a BLAS matmul, so the output is
    bitwise repeatable for the same inputs on one numpy/BLAS build with
    OPENBLAS_NUM_THREADS fixed.  BLAS does not promise the same bits
    across thread counts (OpenBLAS 0.3.31 gave them with 1 and 2 threads
    at L = 21, 90 and 170); pin the variable where bits are compared.
    `analyze` shares this contract.  `eval_point` and `_synth_streamed`
    make no BLAS call: their sums are numpy's elementwise operations.
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
    the folded table; the left side holds c_j^m where the grid's slot
    map puts (m, j).  The buffer and the coefficient rows are zeroed
    first: the regions hold other stages' data, and the buffer's zero
    orders, a d/dtheta row's last slot, which the recurrence only adds
    to, and the coefficient rows' degrees above L are never written
    otherwise.
    """
    views.buffer.fill(0.0)
    views.values.fill(0.0)
    for C, slots in zip(Cs, views.coefficients):
        if len(C) != L + 1:
            raise ValueError(f"field truncation {len(C) - 1} differs from grid truncation {L}")
        slots[...] = C[..., None].view(float).transpose(2, 0, 1)
    for kind, rows, values, weights in views.kinds:
        if kind == "value":
            rows[...] = values
        elif kind == "dphi":
            np.multiply(values, weights, out=rows)
        else:
            down, up = weights
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


def _streamed_sums(C: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """sums[p, m, part, k] = sum over j = p mod 2 of C[m, j] N_j^m P_j^m(mu_k), with no table.

    The Legendre kernel off a grid's table, of `_synth_streamed` and
    `eval_point`: `norm_legendre_table` runs once at mu, and its sink adds
    each degree j's column, for every order m <= j, into the sum of the
    degrees of j's parity; part 0 is the real and part 1 the imaginary
    part.  The slots C[m, j < m] are never read.  It holds the sums, three
    columns of the recurrence and one product: at most 9 (L+1) len(mu)
    floats.
    """
    L = C.shape[1] - 1
    parts = C[..., None].view(float)
    sums = np.zeros((2, L + 1, 2, mu.size))

    def accumulate(j, column):
        sums[j % 2, : j + 1] += parts[: j + 1, j, :, None] * column[:, None, :]

    norm_legendre_table(L, mu, sink=accumulate)
    return sums


def _synth_streamed(C: np.ndarray, spec: GridSpec) -> np.ndarray:
    """The grid values of a SpectralField's coefficients C[m, j], with no Legendre table.

    The same sum as `_synth_values` in the same conventions, for a grid
    that is synthesized on too seldom to pay for a table.  The Legendre
    sums of each parity come from `_streamed_sums` at the northern nodes.
    The irfft input's row at a northern node mu is the sum of the two, and
    the row at -mu is (-1)^m times their difference, since
    P_j^m(-mu) = (-1)^(j-m) P_j^m(mu); an equator row comes once.  The
    sums are freed before the irfft's output is allocated.  The irfft
    drops the imaginary part of c_j^0, real by `SpectralField`.
    """
    C = np.asarray(C, dtype=complex)
    L = C.shape[1] - 1
    half, eq = spec.n_lat // 2, spec.n_lat % 2
    even_j, odd_j = _streamed_sums(C, spec.mu_nodes[half:]).transpose(0, 3, 1, 2)
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
    del even_j, odd_j
    return np.fft.irfft(H, n=spec.n_lon, axis=-1, norm="forward")


def synthesize(c: SpectralField, spec: GridSpec) -> np.ndarray:
    """Inverse transform: pointwise sum of c_j^m Y_j^m on the grid, as an (n_lat, n_lon) array."""
    return _synth_values([c.coeffs], spec, ("value",))[0, 0].copy()


# no experiment calls synthesize_dtheta or synthesize_dphi: they are the
# oracle pair of advection_tendency's fused contraction, and the benchmark
# traces them
def synthesize_dtheta(c: SpectralField, spec: GridSpec) -> np.ndarray:
    """d/dtheta of the field represented by c, evaluated on the grid."""
    return _synth_values([c.coeffs], spec, ("dtheta",))[0, 0].copy()


def synthesize_dphi(c: SpectralField, spec: GridSpec) -> np.ndarray:
    """d/dphi of the field represented by c (spectral: multiply by i*m)."""
    return _synth_values([c.coeffs], spec, ("dphi",))[0, 0].copy()


# points per block in which eval_point streams the Legendre recurrence: rotate_so3
# at L=90 took 0.58 s and 38 MB with it, 0.73 s with 1024 and 137 MB with 16384
EVAL_POINTS = 4096


def eval_point(c: SpectralField, phi, theta):
    """Evaluate the field at arbitrary points (phi, theta), poles allowed.

    Same sum as `synthesize`; phi, theta may be scalars or equally shaped
    arrays.  Returns a float for scalar input.  The Legendre sums come
    from `_streamed_sums`, EVAL_POINTS points at a time, so no table is
    built and memory does not grow with the number of points.
    """
    phi_b, theta_b = np.broadcast_arrays(*np.atleast_1d(np.asarray(phi, dtype=float),
                                                        np.asarray(theta, dtype=float)))
    phi_flat, mu = phi_b.ravel(), np.sin(theta_b.ravel())
    vals = np.empty(mu.size)
    for start in range(0, mu.size, EVAL_POINTS):
        block = slice(start, start + EVAL_POINTS)
        # the real and imaginary parts of sum_j c_j^m N_j^m P_j^m, [m, point]
        real, imag = _streamed_sums(c.coeffs, mu[block]).sum(axis=0).transpose(1, 0, 2)
        angle = phi_flat[block]
        vals[block] = real[0]
        for m in range(1, c.L + 1):
            vals[block] += 2.0 * (real[m] * np.cos(m * angle) - imag[m] * np.sin(m * angle))
    out = vals.reshape(phi_b.shape)
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

    def matrix(self) -> np.ndarray:
        """The traceless symmetric M with field(x) = x^T M x on the unit sphere.

        x = (cos theta cos phi, cos theta sin phi, sin theta), so a rotation
        R maps M to R M R^T, and the L2 inner product of two degree-2
        fields is (8 pi / 15) tr(M1 M2).
        """
        a, b, c, d, e = self.as_tuple()
        return np.array([[d - a, e, b], [e, -d - a, c], [b, c, 2.0 * a]])


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


def e2_part(c: SpectralField) -> E2Coeffs:
    """Coordinates (a, b, c, d, e) of the degree-2 part of c (L >= 2); other
    degrees are ignored."""
    c20, c21, c22 = (c.get(2, m) for m in range(3))
    return E2Coeffs(
        a=c20.real / _K20,
        b=-c21.real / _K2M,
        c=c21.imag / _K2M,
        d=c22.real / _K2M,
        e=-c22.imag / _K2M,
    )


def spectral_to_e2(c: SpectralField, tol: float = 1e-10) -> E2Coeffs:
    """Inverse change of basis; rejects fields with content outside degree 2."""
    y = e2_part(c)
    power = degree_power(c)
    total = power.sum()
    if total > 0 and (total - power[2]) > tol * total:
        raise ValueError(
            f"field has {(total - power[2]) / total:.3e} relative energy outside degree 2"
        )
    return y


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

    A header L above grid.MAX_L raises ValueError before anything is
    allocated.  Each coefficient line must hold four fields 'j m re im' with
    0 <= m <= j <= L, finite values, and no (j, m) given twice, and the
    m = 0 imaginary parts must pass `SpectralField`'s check, judged once
    every line is read; a violation raises ValueError naming the line.
    Missing coefficients are zero.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "L" or not header[1].isdigit():
            raise ValueError(f"bad spectral file header: {header}, expected 'L <int>'")
        L = int(header[1])
        if L > MAX_L:
            raise ValueError(f"spectral file header L = {L} exceeds the largest supported L = {MAX_L}")
        C = np.zeros((L + 1, L + 1), dtype=complex)
        seen = set()
        m0_imag = (0.0, "")  # the largest m = 0 imaginary part, and where
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
            if m == 0 and abs(v.imag) > abs(m0_imag[0]):
                m0_imag = (v.imag, where)
            seen.add((j, m))
            C[m, j] = v
    imag, where = m0_imag
    if abs(imag) > M0_IMAG_RTOL * np.abs(C).max():
        raise ValueError(f"{where}: m = 0 coefficient of a real field has imaginary part {imag:g}")
    return SpectralField(L=L, coeffs=C)


def default_grid(L: int) -> GridSpec:
    """Dealiased default grid for truncation degree L."""
    return build_grid(L)
