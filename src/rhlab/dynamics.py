"""Time integration of the vorticity equation: a fixed-step RK4 stepper
and `evolve`, the one loop that drives it.

Two transport modes share one integrator: coupled mode evolves
d_t zeta = -J grad(omega sin theta - G zeta) . grad(zeta) (the Euler
equation in absolute-vorticity form), prescribed mode transports zeta by
a fixed stream chi, which walks through the rearrangement class of the
initial data without solving Euler.  Experiments observe the states that
`evolve` yields; they never step the solver themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import build_grid, exact_shape
from .harmonics import SpectralField, _field, _synth_values, synthesize_gradients, top_degree
from .operators import _jacobian_coeffs, advection_tendency


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step RK4 configuration.

    stream = None selects the coupled Euler mode; a SpectralField selects
    prescribed-stream transport by that fixed chi.  `evolve` yields the
    state every diag_every steps.
    """

    L: int
    omega: float
    dt: float
    t_end: float
    stream: SpectralField | None = None
    diag_every: int = 100

    def __post_init__(self):
        check_schedule(self.dt, self.t_end, self.diag_every)


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
    """RK4 stepper with per-grid tables prepared once.

    Its grid is `exact_shape(2L + d)`, d the top degree of the field that
    transports zeta: L in coupled mode, where this is the default grid,
    and the stream's top degree in prescribed mode.  J(chi, zeta) has
    degree at most L + d - 1 (the Jacobian's selection rule), so its
    analysis against degree-L harmonics integrates degree <= 2L + d - 1
    exactly.  The degree-3 rearrangement stream at L=90 steps on 92 x 192
    nodes instead of the default 136 x 288.

    In prescribed mode the stream's gradient grids are precomputed, so a
    step costs only the zeta-side transforms, on `advection_tendency`'s
    array path; zeta's gradient grids are read in the grid's work region,
    and the stream's are the stepper's own copy.
    """

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        d = cfg.L if cfg.stream is None else top_degree(cfg.stream)
        self.spec = build_grid(cfg.L, *exact_shape(2 * cfg.L + d))
        self._psi_grids = None
        if cfg.stream is not None:
            self._psi_grids = synthesize_gradients((cfg.stream,), self.spec)[:, 0]

    def tendency(self, zeta: SpectralField) -> SpectralField:
        if self._psi_grids is None:
            return advection_tendency(zeta, self.cfg.omega, self.spec)
        dzeta = _synth_values((zeta.coeffs,), self.spec, ("dphi", "dtheta"))[:, 0]
        return _field(zeta.L, _jacobian_coeffs(self._psi_grids, dzeta, self.spec, zeta.L))

    def step(self, zeta: SpectralField, step_index: int = 0) -> SpectralField:
        dt = self.cfg.dt
        k1 = self.tendency(zeta).coeffs
        k2 = self.tendency(_field(zeta.L, zeta.coeffs + 0.5 * dt * k1)).coeffs
        k3 = self.tendency(_field(zeta.L, zeta.coeffs + 0.5 * dt * k2)).coeffs
        k4 = self.tendency(_field(zeta.L, zeta.coeffs + dt * k3)).coeffs
        C = zeta.coeffs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(C).all():
            raise FloatingPointError(f"non-finite tendency at step {step_index}")
        C[0, 0] = 0.0
        return _field(zeta.L, C)


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
