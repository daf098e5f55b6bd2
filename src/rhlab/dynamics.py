"""Time integration of the vorticity equation: a fixed-step RK4 stepper
and `evolve`, the one loop that drives it.

Two transport modes share one integrator: coupled mode evolves
d_t zeta = -J grad(omega sin theta - G zeta) . grad(zeta) (the Euler
equation in absolute-vorticity form) through transforms, prescribed mode
transports zeta by a fixed stream chi, which walks through the
rearrangement class of the initial data without solving Euler.  Its
tendency is linear in zeta, so it is built once as an exact spectral
stencil (the interaction-coefficient form of the vorticity equation) and
stepped without transforms; streams are limited to degree
MAX_STREAM_DEGREE.  Experiments observe the states that `evolve` yields;
they never step the solver themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import GridSpec, build_grid, exact_shape
from .harmonics import SpectralField, _dtheta_recurrence, _field, _order_rows, top_degree
from .operators import advection_tendency

# The largest top degree of a prescribed stream.  A degree-d stream's
# stencil has up to (2d + 1)(2d - 1) planes of (L+1)^2 coefficients (4 GB
# at d = L = 90), so the stencil is the fast form only for small d; the
# rearrangement stream has degree 3.
MAX_STREAM_DEGREE = 3


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step RK4 configuration.

    stream = None selects the coupled Euler mode; a SpectralField selects
    prescribed-stream transport by that fixed chi, which must have
    truncation L and top degree <= MAX_STREAM_DEGREE, or ValueError is
    raised.  `evolve` yields the state every diag_every steps.
    """

    L: int
    omega: float
    dt: float
    t_end: float
    stream: SpectralField | None = None
    diag_every: int = 100

    def __post_init__(self):
        check_schedule(self.dt, self.t_end, self.diag_every)
        if self.stream is not None:
            if self.stream.L != self.L:
                raise ValueError(f"stream truncation {self.stream.L} != config L {self.L}")
            d = top_degree(self.stream)
            if d > MAX_STREAM_DEGREE:
                raise ValueError(f"stream of degree {d} exceeds MAX_STREAM_DEGREE = {MAX_STREAM_DEGREE}")


def check_schedule(dt: float, t_end: float, diag_every: int) -> None:
    """Raise ValueError unless 0 < dt < inf, 0 <= t_end < inf and diag_every >= 1; NaN fails."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt:g}")
    if not t_end >= 0:
        raise ValueError(f"t_end must be nonnegative, got {t_end:g}")
    if np.isinf(dt) or np.isinf(t_end):
        raise ValueError(f"dt and t_end must be finite, got dt={dt:g}, t_end={t_end:g}")
    if diag_every < 1:
        raise ValueError(f"diag_every must be >= 1, got {diag_every}")


class Stepper:
    """RK4 stepper with its grid, or its stencil, prepared once.

    Coupled mode steps on the default grid, `exact_shape(3L)`, through
    `advection_tendency`'s transforms.  Prescribed mode never transforms:
    its tendency zeta -> P_L[(chi_theta zeta_phi - chi_phi zeta_theta) /
    cos(theta)] is linear in zeta with a fixed coefficient, so it is
    built once as a spectral stencil, `planes` (`_transport_planes`), and
    applied as a sum of each plane times a shifted view of a zero-padded
    copy of zeta's coefficients, which the stepper keeps.  The copy holds
    conj(c_j^m) in the rows of the negative orders -m (c_j^{-m} Y_j^{-m}
    = conj(c_j^m) N_j^m P_j^m e^{-i m phi}), so the rows m' below the
    stream's largest order are conjugate-linear.  As in
    `operators._jacobian_coeffs`, c_0^0 and the imaginary parts of order
    0 are then set to zero.

    The stencil's quadrature grid, `spec`, is `exact_shape(2L + d)`, d
    the stream's top degree: J(chi, zeta) has degree at most L + d - 1
    (the Jacobian's selection rule), so its products with degree-L
    harmonics have degree <= 2L + d - 1 and are integrated exactly.  The
    degree-3 rearrangement stream at L=90 is built on 92 x 192 nodes,
    where its 6 planes take 0.8 MB.  The sums are elementwise, with no
    BLAS call, so the planes, and every prescribed step, do not depend
    on the BLAS thread count.

    The kept arrays and their price, measured on the prescribed L=90
    step (three runs of 40 interleaved rounds of 50 steps against
    variants without them, 1 BLAS thread, 2-core shared host): forming
    the stage states and the weighted sum in `_stage` instead of in
    fresh temporaries makes the step 7-13% faster (median 0.60-0.81
    against 0.68-0.87 ms; faster in 28-35 of 40 rounds).  The product
    buffer `_product` shows no resolved gain: without it the median
    moved by -0.5% to +3% (faster in 18-28 of 40 rounds).
    """

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        L = cfg.L
        d = L if cfg.stream is None else top_degree(cfg.stream)
        self.spec = build_grid(L, *exact_shape(2 * L + d))
        self._stage = np.empty((L + 1, L + 1), dtype=complex)
        self.planes = {}
        if cfg.stream is None:
            return
        self.planes = _transport_planes(cfg.stream, self.spec)
        # orders -pm..L+pm and degrees -pd..L+pd of zeta, zero outside 0 <= m <= j <= L
        pm = max((abs(mu) for mu, _ in self.planes), default=0)
        pd = max((abs(delta) for _, delta in self.planes), default=0)
        padded = np.zeros((L + 1 + 2 * pm, L + 1 + 2 * pd), dtype=complex)
        self._coeffs = padded[pm : pm + L + 1, pd : pd + L + 1]
        self._mirror = padded[:pm, pd : pd + L + 1]  # orders -1..-pm, bottom up
        self._product = np.empty((L + 1, L + 1), dtype=complex)
        self._terms = [(plane, padded[pm - mu : pm - mu + L + 1, pd - delta : pd - delta + L + 1])
                       for (mu, delta), plane in self.planes.items()]

    def tendency(self, zeta: SpectralField) -> SpectralField:
        if self.cfg.stream is None:
            return advection_tendency(zeta, self.cfg.omega, self.spec)
        C = zeta.coeffs
        self._coeffs[...] = C
        np.conjugate(C[len(self._mirror) : 0 : -1], out=self._mirror)
        T = np.zeros_like(C)
        for plane, source in self._terms:
            np.multiply(plane, source, out=self._product)
            T += self._product
        T[0, 0] = 0.0
        T.imag[0] = 0.0
        return _field(zeta.L, T)

    def _stage_state(self, C: np.ndarray, h: float, k: np.ndarray) -> SpectralField:
        """The RK4 stage state C + h k, formed in the kept array `_stage`."""
        np.multiply(k, h, out=self._stage)
        np.add(C, self._stage, out=self._stage)
        return _field(self.cfg.L, self._stage)

    def step(self, zeta: SpectralField, step_index: int = 0) -> SpectralField:
        """One RK4 step.  Only the returned state is a fresh array: the
        stage states and the weighted sum of the tendencies are formed in
        `_stage`, and the tendencies, fresh on every call, are reused."""
        dt, C, stage = self.cfg.dt, zeta.coeffs, self._stage
        k1 = self.tendency(zeta).coeffs
        k2 = self.tendency(self._stage_state(C, 0.5 * dt, k1)).coeffs
        k3 = self.tendency(self._stage_state(C, 0.5 * dt, k2)).coeffs
        k4 = self.tendency(self._stage_state(C, dt, k3)).coeffs
        # (dt / 6) (k1 + 2 k2 + 2 k3 + k4), in the same order of operations
        np.multiply(k2, 2.0, out=stage)
        np.add(k1, stage, out=stage)
        np.multiply(k3, 2.0, out=k3)
        np.add(stage, k3, out=stage)
        np.add(stage, k4, out=stage)
        np.multiply(stage, dt / 6.0, out=stage)
        C = C + stage
        if not np.isfinite(C).all():
            raise FloatingPointError(f"non-finite tendency at step {step_index}")
        C[0, 0] = 0.0
        return _field(zeta.L, C)


def _transport_planes(chi: SpectralField, spec: GridSpec) -> dict[tuple[int, int], np.ndarray]:
    """The stencil of transport by chi: planes[mu, delta][m', j'] weighs zeta's c_{j'-delta}^{m'-mu}.

    Output (m', j') of P_L[(chi_theta zeta_phi - chi_phi zeta_theta) /
    cos(theta)] depends only on zeta's orders m = m' - mu, mu an order
    of chi or its negative, and degrees j = j' - delta, |delta| <= d - 1
    and delta = d + 1 (mod 2) for a degree d of chi's order |mu| (the
    Jacobian's selection rule); a negative m reads conj(c_j^{|m|}).
    With chi_theta = sum_mu a_mu e^{i mu phi} and chi_phi = sum_mu b_mu
    e^{i mu phi}, the block from order m to order m' = m + mu is

        E[j', j] = 2 pi sum_k (w_k / cos theta_k) N P_{j'}^{m'}(mu_k)
                   (i m a_mu(k) N P_j^{|m|}(mu_k) - b_mu(k) d_theta N P_j^{|m|}(mu_k)),

    a Gauss quadrature on spec's nodes, exact on `exact_shape(2L + d)`.
    The part of a_mu and b_mu from the degrees d of one parity has
    parity d - |mu| + 1 and d - |mu| in mu, so for each delta of that
    parity the summand is even (the selection rule, node by node): the
    sum runs over the northern nodes with doubled weights (the equator,
    its own mirror, once), and a_mu and b_mu are split by the parity of
    chi's degrees, which a stream of mixed degrees needs.

    The Legendre rows come from the grid's folded table one order at a
    time (`_order_rows`).  For each output order m' and each (mu, parity)
    one `np.einsum`, which makes no BLAS call, sums every delta of that
    parity and both the real and imaginary parts at once: it reads the
    source rows, zero-padded by the largest |delta|, through shifted
    windows and writes into the planes' real and imaginary parts in
    place.  At L=90 the rearrangement stream's 6 planes take 91
    `_order_rows` calls, 181 einsum calls and about 12 ms (one BLAS
    thread, 2-core host).  A plane is (L+1, L+1) complex and read-only.
    """
    L, C, top = spec.L, chi.coeffs, top_degree(chi)
    # output order m' reads the orders m' - top..m' + top
    rows = lru_cache(maxsize=2 * top + 1)(partial(_order_rows, spec, _dtheta_recurrence(L)))
    # (mu, deltas, i a_mu and b_mu as (real, imaginary) rows) for each order
    # of chi and its negative and each parity of its degrees
    profiles = []
    for q in range(top + 1):
        degrees = np.flatnonzero(C[q, 1 : top + 1]) + 1
        values, dtheta = rows(q)
        for parity in (1, 0):
            d = degrees[degrees % 2 == parity]
            if not d.size:
                continue
            c = C[q, d, None]
            a = (c * dtheta[d]).sum(axis=0)
            b = 1j * q * (c * values[d]).sum(axis=0)
            deltas = range(1 - d.max(), d.max(), 2)
            profiles.append((q, deltas, np.stack((-a.imag, a.real))[:, None],
                             np.stack((b.real, b.imag))[:, None]))
            if q:
                profiles.append((-q, deltas, np.stack((a.imag, a.real))[:, None],
                                 np.stack((b.real, -b.imag))[:, None]))
    index = {}
    for mu, deltas, _, _ in profiles:
        index.update({(mu, delta): len(index) + t for t, delta in enumerate(deltas)})
    # parts[index[mu, delta], p]: the real (p = 0) and imaginary (p = 1) part of a plane
    parts = np.zeros((len(index), 2, L + 1, L + 1))
    north = slice(spec.n_lat // 2, None)
    weights = 4.0 * np.pi * spec.weights[north] * spec.sec_theta[north]
    if spec.n_lat % 2:
        weights[0] *= 0.5  # the equator is its own mirror
    # source[p, pad + j]: the real (p = 0) and imaginary (p = 1) parts of
    # i m a_mu N P_j^{|m|} - b_mu d_theta N P_j^{|m|}, zero outside 0 <= j <= L;
    # output row j' reads row j = j' - delta through windows[p, pad - delta, k, j']
    pad = max(top - 1, 0)
    source = np.zeros((2, L + 1 + 2 * pad, weights.size))
    inner, term = source[:, pad : pad + L + 1], np.empty((2, L + 1, weights.size))
    windows = sliding_window_view(source, L + 1, axis=1)
    for m_out in range(L + 1 if profiles else 0):
        # rows j' >= m_out of the output order
        out = weights * rows(m_out)[0][m_out:]
        for mu, deltas, ia, b in profiles:
            m = m_out - mu
            if m > L:
                continue
            # rows j' >= m_out read the source rows j >= m_out - pad only
            lo = max(m_out - pad, 0)
            values, dtheta = (r[lo:] for r in rows(abs(m)))
            np.multiply(values, m * ia, out=inner[:, lo:])
            np.multiply(dtheta, b, out=term[:, lo:])
            np.subtract(inner[:, lo:], term[:, lo:], out=inner[:, lo:])
            s, first = pad - deltas[-1], index[mu, deltas[0]]
            np.einsum("jk,ptkj->tpj", out, windows[:, s : s + 2 * len(deltas) : 2, :, m_out:][:, ::-1],
                      out=parts[first : first + len(deltas), :, m_out, m_out:])
    planes = parts[:, 0] + 1j * parts[:, 1]
    planes.setflags(write=False)
    return {key: planes[i] for key, i in index.items()}


def evolve(zeta0: SpectralField, cfg: SolverConfig):
    """Integrate zeta0 over round(t_end / dt) steps, yielding (t, zeta).

    Yields at step 0 (zeta0 itself), every diag_every steps, and once at
    the last step; t = k * dt at step k.  The input checks run when the
    first state is requested.
    """
    if not zeta0.zero_mean:
        raise ValueError("evolve requires a zero-mean initial field")
    if zeta0.L != cfg.L:
        raise ValueError(f"field truncation {zeta0.L} != config L {cfg.L}")
    stepper = Stepper(cfg)
    n_steps = int(round(cfg.t_end / cfg.dt))
    zeta = zeta0
    yield 0.0, zeta
    for k in range(1, n_steps + 1):
        zeta = stepper.step(zeta, step_index=k)
        if k % cfg.diag_every == 0 or k == n_steps:
            yield k * cfg.dt, zeta
