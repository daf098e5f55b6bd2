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

import numpy as np

from .grid import GridField, GridSpec, build_grid

SQRT4PI = float(np.sqrt(4.0 * np.pi))

# --------------------------------------------------------------------------
# Normalized associated Legendre functions
# --------------------------------------------------------------------------


def norm_legendre_table(L: int, mu: np.ndarray) -> np.ndarray:
    """Table P[m, j, k] = N_j^m P_j^m(mu_k) for 0 <= m <= j <= L.

    Seeded from the normalized diagonal term and filled with the stable
    three-term recurrence in j; entries with m > j are zero.  Valid for
    any mu in [-1, 1], poles included.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    n = mu.size
    s = np.sqrt(np.clip(1.0 - mu ** 2, 0.0, None))
    P = np.zeros((L + 1, L + 1, n))
    P[0, 0] = 1.0 / SQRT4PI
    for m in range(1, L + 1):
        P[m, m] = -np.sqrt((2 * m + 1) / (2.0 * m)) * s * P[m - 1, m - 1]
    for m in range(0, L + 1):
        eps_prev = 0.0
        prev2 = np.zeros(n)
        prev1 = P[m, m]
        for j in range(m + 1, L + 1):
            eps = np.sqrt((j * j - m * m) / (4.0 * j * j - 1.0))
            cur = (mu * prev1 - eps_prev * prev2) / eps
            P[m, j] = cur
            prev2, prev1, eps_prev = prev1, cur, eps
    return P


def norm_legendre_dtheta_table(L: int, mu: np.ndarray, cos_theta: np.ndarray) -> np.ndarray:
    """Table dP[m, j, k] = d/dtheta [N_j^m P_j^m(sin theta)] at mu_k.

    Uses (1-mu^2) dP_j/dmu = (j+1) eps_j P_{j-1} - j eps_{j+1} P_{j+1}
    with eps_j^m = sqrt((j^2-m^2)/(4j^2-1)), divided by cos(theta).
    Requires cos(theta) > 0 (interior Gauss nodes only).
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    full = norm_legendre_table(L + 1, mu)
    dP = np.zeros((L + 1, L + 1, mu.size))
    for m in range(0, L + 1):
        for j in range(m, L + 1):
            eps_up = np.sqrt(((j + 1.0) ** 2 - m * m) / (4.0 * (j + 1.0) ** 2 - 1.0))
            acc = -j * eps_up * full[m, j + 1]
            if j - 1 >= m:
                eps_dn = np.sqrt((j * j - m * m) / (4.0 * j * j - 1.0))
                acc = acc + (j + 1) * eps_dn * full[m, j - 1]
            dP[m, j] = acc / cos_theta
    return dP


_TABLE_CACHE: "weakref.WeakKeyDictionary[GridSpec, dict]" = weakref.WeakKeyDictionary()


def grid_tables(spec: GridSpec) -> dict:
    """Per-grid cached Legendre tables (value, quadrature-weighted, d/dtheta).

    The tables are shared by every caller on `spec`, so they are read-only.
    """
    tab = _TABLE_CACHE.get(spec)
    if tab is None:
        P = norm_legendre_table(spec.L, spec.mu_nodes)
        tab = {
            "P": P,
            "Pw": P * spec.weights[None, None, :],
            "dP": norm_legendre_dtheta_table(spec.L, spec.mu_nodes, spec.cos_theta),
        }
        for table in tab.values():
            table.setflags(write=False)
        _TABLE_CACHE[spec] = tab
    return tab


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


def spectral_zeros(L: int) -> SpectralField:
    return SpectralField(L=L, coeffs=np.zeros((L + 1, L + 1), dtype=complex))


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


def analyze(f: GridField, L: int) -> SpectralField:
    """Forward transform: c_j^m = integral of f * conj(Y_j^m) d_sigma.

    Longitude discrete Fourier sum, then Gauss quadrature in latitude;
    exact to roundoff for fields bandlimited to degree <= L.  The
    quadrature is `_legendre_quadrature` on the weighted table, so the
    result is bitwise repeatable under the contract stated in
    `_synth_values` (fixed numpy/BLAS build and OPENBLAS_NUM_THREADS).
    """
    spec = f.spec
    if spec.n_lat < L + 1:
        raise ValueError(f"n_lat={spec.n_lat} < L+1={L + 1}: undersized grid")
    if spec.n_lon < 2 * L + 1:
        raise ValueError(f"n_lon={spec.n_lon} < 2L+1={2 * L + 1}: undersized grid")
    if L == spec.L:
        Pw = grid_tables(spec)["Pw"]
    else:
        P = norm_legendre_table(L, spec.mu_nodes)
        Pw = P * spec.weights[None, None, :]
    fourier = np.fft.rfft(f.values, axis=1)[:, : L + 1] * (2.0 * np.pi / spec.n_lon)
    C = _legendre_quadrature(Pw, fourier)
    # c_j^0 is real for real input; drop the quadrature's imaginary dust.
    C[0] = C[0].real
    return SpectralField(L=L, coeffs=C)


def synthesize(c: SpectralField, spec: GridSpec) -> GridField:
    """Inverse transform: pointwise sum of c_j^m Y_j^m on the grid."""
    if spec.L < c.L:
        raise ValueError(f"grid truncation {spec.L} < field truncation {c.L}")
    C = pad_to(c, spec.L).coeffs
    return GridField(values=_synth_values(C, grid_tables(spec)["P"], spec.n_lon), spec=spec)


def _legendre_contract(C: np.ndarray, table: np.ndarray) -> np.ndarray:
    """G[m, n] = sum_i C[m, i] table[m, i, n] for complex C and a real table.

    The Legendre kernel of synthesis and point evaluation (analysis uses
    `_legendre_quadrature`).  It runs in real arithmetic: the real and
    imaginary parts of C are stacked as two rows per m and contracted with
    one batched matmul, so the table is read once and never promoted to
    complex.
    """
    rows = np.stack((C.real, C.imag), axis=1)
    out = np.matmul(rows, table)
    return out[:, 0] + 1j * out[:, 1]


def _legendre_quadrature(table: np.ndarray, F: np.ndarray) -> np.ndarray:
    """C[m, j] = sum_k table[m, j, k] F[k, m] for a real table and complex F.

    The analysis counterpart of `_legendre_contract`: the table is read in
    its stored layout, against F as two real columns (real and imaginary
    part) per m, in one batched matmul.  Same determinism contract as
    `_synth_values`.
    """
    cols = np.stack((F.real.T, F.imag.T), axis=-1)
    out = np.matmul(table, cols)
    return out[..., 0] + 1j * out[..., 1]


def _synth_values(C: np.ndarray, table: np.ndarray, n_lon: int) -> np.ndarray:
    """Grid values from coefficient array C[m, j] and a Legendre-type table.

    Determinism: the Legendre sum is a BLAS matmul (`_legendre_contract`),
    so the output is bitwise repeatable for the same inputs on one
    numpy/BLAS build with OPENBLAS_NUM_THREADS fixed.  BLAS does not
    promise the same bits across thread counts (OpenBLAS 0.3.31 gave them
    with 1 and 2 threads at L = 21, 90 and 170); pin the variable where
    bits are compared.  `analyze` and `eval_point` share this contract.
    """
    G = _legendre_contract(C, table)
    imag0 = np.abs(G[0].imag).max() if G.shape[1] else 0.0
    if imag0 > 1e-12:
        raise ValueError(f"m=0 synthesis has imaginary residue {imag0:.3e}")
    n_half = n_lon // 2 + 1
    H = np.zeros((table.shape[2], n_half), dtype=complex)
    H[:, : G.shape[0]] = G.T * n_lon
    return np.fft.irfft(H, n=n_lon, axis=1)


def synthesize_dtheta(c: SpectralField, spec: GridSpec) -> GridField:
    """d/dtheta of the field represented by c, evaluated on the grid."""
    if spec.L < c.L:
        raise ValueError(f"grid truncation {spec.L} < field truncation {c.L}")
    C = pad_to(c, spec.L).coeffs
    return GridField(values=_synth_values(C, grid_tables(spec)["dP"], spec.n_lon), spec=spec)


def synthesize_dphi(c: SpectralField, spec: GridSpec) -> GridField:
    """d/dphi of the field represented by c (spectral: multiply by i*m)."""
    if spec.L < c.L:
        raise ValueError(f"grid truncation {spec.L} < field truncation {c.L}")
    C = pad_to(c, spec.L).coeffs.copy()
    m = np.arange(spec.L + 1)
    C *= 1j * m[:, None]
    return GridField(values=_synth_values(C, grid_tables(spec)["P"], spec.n_lon), spec=spec)


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
