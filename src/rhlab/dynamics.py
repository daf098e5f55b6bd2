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

from .harmonics import SpectralField, _gradient_grids, default_grid, synthesize_gradients
from .operators import advection_tendency, jacobian_tendency


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
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.diag_every < 1:
            raise ValueError("diag_every must be >= 1")


class Stepper:
    """RK4 stepper with per-grid tables prepared once.

    In prescribed mode the stream's gradient grids are precomputed, so a
    step costs only the zeta-side transforms; zeta's gradient grids are
    read in the grid's work region, and the stream's are the stepper's
    own copy.
    """

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        self.spec = default_grid(cfg.L)
        self._psi_grids = None
        if cfg.stream is not None:
            self._psi_grids = synthesize_gradients((cfg.stream,), self.spec)[:, 0]

    def tendency(self, zeta: SpectralField) -> SpectralField:
        if self._psi_grids is None:
            return advection_tendency(zeta, self.cfg.omega, self.spec)
        dzeta = _gradient_grids((zeta,), self.spec)[:, 0]
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
        C[0, 0] = 0.0
        return SpectralField(L=zeta.L, coeffs=C)


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
