"""Time integration of the vorticity equation with conservation diagnostics.

Two transport modes share one integrator: coupled mode evolves
d_t zeta = -J grad(omega sin theta - G zeta) . grad(zeta) (the Euler
equation in absolute-vorticity form), prescribed mode transports zeta by
a fixed stream chi, which walks through the rearrangement class of the
initial data without solving Euler.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .harmonics import SpectralField, default_grid, synthesize_gradients
from .operators import advection_tendency, jacobian_tendency
from .functionals import c1_triple, energy_proxy

FILTER_S_DEFAULT = float(36.0 * np.log(10.0))
FILTER_Q_DEFAULT = 16


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step RK4 configuration.

    stream = None selects the coupled Euler mode; a SpectralField selects
    prescribed-stream transport by that fixed chi.  The exponential
    spectral filter (off by default) damps the highest degrees once per
    step; it breaks exact conservation and is never used in verification
    runs.
    """

    L: int
    omega: float
    dt: float
    t_end: float
    stream: SpectralField | None = None
    filter_on: bool = False
    filter_s: float = FILTER_S_DEFAULT
    filter_q: int = FILTER_Q_DEFAULT
    diag_every: int = 100

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.diag_every < 1:
            raise ValueError("diag_every must be >= 1")


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    energy_proxy: float
    moments: tuple[float, ...]  # I2 .. I7
    c1: tuple[complex, float, complex]  # phase-corrected (c_1^{-1}, c_1^0, c_1^1)
    functional_values: dict[str, float] = field(default_factory=dict)


class Stepper:
    """RK4 stepper with per-grid tables prepared once.

    In prescribed mode the stream's gradient grids are precomputed, so a
    step costs only the zeta-side transforms.
    """

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        self.spec = default_grid(cfg.L)
        self._filter = None
        if cfg.filter_on:
            j = np.arange(cfg.L + 1)
            self._filter = np.exp(-cfg.filter_s * (j / cfg.L) ** cfg.filter_q)[None, :]
        self._psi_grids = None
        if cfg.stream is not None:
            self._psi_grids = synthesize_gradients((cfg.stream,), self.spec)[:, 0]

    def tendency(self, zeta: SpectralField) -> SpectralField:
        if self._psi_grids is None:
            return advection_tendency(zeta, self.cfg.omega, self.spec)
        dzeta = synthesize_gradients((zeta,), self.spec)[:, 0]
        return jacobian_tendency(self._psi_grids, dzeta, self.spec, zeta.L)

    def step(self, zeta: SpectralField, step_index: int = 0) -> SpectralField:
        dt = self.cfg.dt
        k1 = self.tendency(zeta).coeffs
        k2 = self.tendency(SpectralField(zeta.L, zeta.coeffs + 0.5 * dt * k1)).coeffs
        k3 = self.tendency(SpectralField(zeta.L, zeta.coeffs + 0.5 * dt * k2)).coeffs
        k4 = self.tendency(SpectralField(zeta.L, zeta.coeffs + dt * k3)).coeffs
        C = zeta.coeffs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(C)):
            raise FloatingPointError(f"non-finite tendency at step {step_index}")
        if self._filter is not None:
            C = C * self._filter
        C[0, 0] = 0.0
        return SpectralField(L=zeta.L, coeffs=C)


def step_rk4(zeta: SpectralField, cfg: SolverConfig) -> SpectralField:
    """One RK4 step (convenience wrapper; loops should reuse a Stepper)."""
    if zeta.coeffs[0, 0] != 0.0:
        raise ValueError("step_rk4 requires a zero-mean field")
    if zeta.L != cfg.L:
        raise ValueError(f"field truncation {zeta.L} != config L {cfg.L}")
    return Stepper(cfg).step(zeta)


def _record(t: float, zeta: SpectralField, omega: float, functionals) -> DiagnosticsRecord:
    from .invariants_algebra import moments_numeric

    c1m, c10, c1p = c1_triple(zeta)
    # conserved phase-corrected combination of the degree-1 coefficients
    ph = np.exp(-1j * omega * t)
    c1 = (c1m / ph, c10, c1p * ph)
    return DiagnosticsRecord(
        t=t,
        energy_proxy=energy_proxy(zeta),
        moments=tuple(moments_numeric(zeta, 7)),
        c1=c1,
        functional_values={name: fn(zeta) for name, fn in functionals},
    )


def run(zeta0: SpectralField, cfg: SolverConfig, functionals=None):
    """Integrate to t_end, emitting a DiagnosticsRecord every diag_every steps.

    functionals: list of (name, callable SpectralField -> float).
    Returns (zeta_final, records); records always include t = 0 and the
    final time.
    """
    if zeta0.coeffs[0, 0] != 0.0:
        raise ValueError("run requires a zero-mean initial field")
    if zeta0.L != cfg.L:
        raise ValueError(f"field truncation {zeta0.L} != config L {cfg.L}")
    functionals = list(functionals or [])
    stepper = Stepper(cfg)
    n_steps = int(round(cfg.t_end / cfg.dt))
    zeta = zeta0
    records = [_record(0.0, zeta, cfg.omega, functionals)]
    for k in range(1, n_steps + 1):
        zeta = stepper.step(zeta, step_index=k)
        if k % cfg.diag_every == 0 or k == n_steps:
            records.append(_record(k * cfg.dt, zeta, cfg.omega, functionals))
    return zeta, records


CSV_BASE_HEADER = [
    "t", "energy_proxy", "I2", "I3", "I4", "I5", "I6", "I7",
    "c1m_re", "c1m_im", "c10", "c1p_re", "c1p_im",
]


def write_diagnostics_csv(records, functional_names, path, comments=()):
    """Write records in the diagnostics CSV schema, with '#' comment lines."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_BASE_HEADER + list(functional_names))
        for r in records:
            c1m, c10, c1p = r.c1
            row = [
                f"{r.t:.17g}", f"{r.energy_proxy:.17g}",
                *[f"{v:.17g}" for v in r.moments],
                f"{c1m.real:.17g}", f"{c1m.imag:.17g}", f"{c10:.17g}",
                f"{c1p.real:.17g}", f"{c1p.imag:.17g}",
            ]
            row += [f"{r.functional_values[n]:.17g}" for n in functional_names]
            writer.writerow(row)


def read_diagnostics_csv(path):
    """Parse a diagnostics CSV back into (header, rows of floats, comments)."""
    comments = []
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            parts = line.split(",")
            if header is None:
                header = parts
            else:
                rows.append([float(x) for x in parts])
    return header, rows, comments
