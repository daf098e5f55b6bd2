"""Scripted experiments: traveling-wave verification, orbital-stability
sweeps, orbit traversal, and the rearrangement maximality bound.

Each experiment is a function of its `ExperimentConfig` alone.  It
builds an initial state, observes the states that `dynamics.evolve`
yields (one CSV row per yielded state), checks its in-run assertions,
and can write a CSV whose comment header is the package version and the
whole config, so that `config_from_mapping` reads the run back from it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import get_type_hints

import numpy as np

from . import __version__
from .dynamics import SolverConfig, check_schedule, evolve
from .functionals import c1_phase_corrected, e_deg2, e_deg2_max, energy_proxy
from .grid import MAX_L
from .harmonics import (
    E2Coeffs,
    SpectralField,
    _field,
    e2_to_spectral,
    from_coeff_dict,
    norm_l2,
)
from .invariants_algebra import moments_numeric
from .operators import SINTHETA_C10, sin_theta_field
from .orbit_metrics import check_p, dist_polar_orbit, dist_so3_orbit, lp_distance
from .rh_waves import exact_state, make_rh
from .rotations import rotate_polar

SIN_THETA_NORM = SINTHETA_C10  # ||sin theta||_{L^2} = sqrt(4 pi / 3)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all experiments; unused fields are ignored.

    Y is the degree-2 spherical part in the real basis (a, b, c, d, e).
    The perturbation recipe draws Gaussian spherical-harmonic
    coefficients on degrees 1..max_degree, removes the mean, and
    normalizes to unit L^2 norm, so epsilon sweeps are comparable.
    Construction checks each field's range.  output_path must name a file
    in an existing directory; `_write_csv` writes it after the run, so a
    run that fails leaves a file already there as it was.  Rules that
    tie a field to an experiment (max_degree <= L, the rearrangement
    stream's L >= 3) are the experiment's.
    """

    name: str = "experiment"
    L: int = 21
    omega: float = 0.0
    alpha: float = 1.0
    Y: E2Coeffs = field(default_factory=lambda: E2Coeffs(1.0, 0.3, 0.0, 0.2, 0.0))
    p: float = 2.0
    epsilons: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3)
    seed: int = 0
    max_degree: int = 6
    dt: float = 1e-3
    t_end: float = 10.0
    diag_every: int = 500
    delta: float = 0.05
    beta_target: float = np.pi
    output_path: str | None = None

    def __post_init__(self):
        if self.L < 2:
            raise ValueError(f"L must be >= 2, got {self.L}")
        if self.L > MAX_L:
            raise ValueError(f"L must be <= {MAX_L}, got {self.L}")
        check_schedule(self.dt, self.t_end, self.diag_every)
        if self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        check_p(self.p)
        eps = tuple(self.epsilons)
        # each finite and above the next, the last above 0 (so NaN fails); none would pass vacuously
        if not eps or not all(math.inf > a > b for a, b in zip(eps, eps[1:] + (0.0,))):
            raise ValueError(f"epsilons must be nonempty, finite, positive and decreasing, got {eps}")
        out = self.output_path
        if out is not None and (not out or os.path.isdir(out)
                                or not os.path.isdir(os.path.dirname(out) or ".")):
            raise ValueError(f"output_path {out!r} is not a file in an existing directory")


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    ok: bool
    messages: tuple[str, ...]
    rows: tuple[tuple, ...]
    header: tuple[str, ...]


def random_bandlimited(L: int, seed: int, max_degree: int = 6) -> SpectralField:
    """Seeded zero-mean unit-norm field with Gaussian coefficients on
    degrees 1..max_degree; a max_degree above L raises ValueError."""
    if max_degree > L:
        raise ValueError(f"max_degree must be <= L = {L}, got {max_degree}")
    rng = np.random.default_rng(seed)
    C = np.zeros((L + 1, L + 1), dtype=complex)
    for j in range(1, max_degree + 1):
        C[0, j] = rng.normal()
        for m in range(1, j + 1):
            C[m, j] = rng.normal() + 1j * rng.normal()
    f = SpectralField(L, C)
    return SpectralField(L, C / norm_l2(f))


def _rh_ingredients(cfg: ExperimentConfig):
    Y = e2_to_spectral(cfg.Y, cfg.L)
    state = make_rh(cfg.omega, cfg.alpha, Y)
    zeta0 = exact_state(state, 0.0)
    return Y, state, zeta0


def _solver_config(cfg: ExperimentConfig, stream: SpectralField | None = None) -> SolverConfig:
    return SolverConfig(L=cfg.L, omega=cfg.omega, dt=cfg.dt, t_end=cfg.t_end,
                        stream=stream, diag_every=cfg.diag_every)


def _write_csv(cfg: ExperimentConfig, header, rows):
    """The CSV at cfg.output_path, if any: `config_comments(cfg)`, the header, the rows."""
    if cfg.output_path is None:
        return
    with open(cfg.output_path, "w") as fh:
        for line in config_comments(cfg):
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def exp_rh_exactness(cfg: ExperimentConfig, err_tol: float = 1e-6) -> ExperimentResult:
    """Evolve an RH state and compare against its closed-form evolution."""
    _, state, zeta0 = _rh_ingredients(cfg)
    rows = []
    for t, zeta in evolve(zeta0, _solver_config(cfg)):
        ex = exact_state(state, t)
        rows.append((t, norm_l2(_field(cfg.L, zeta.coeffs - ex.coeffs)) / norm_l2(ex)))
    max_err = max(err for _, err in rows)
    ok = max_err < err_tol
    messages = (f"max relative L2 deviation {max_err:.3e} ({'<' if ok else '>='} {err_tol:g})",)
    header = ("t", "rel_l2_error")
    _write_csv(cfg, header, rows)
    return ExperimentResult(cfg.name, ok, messages, tuple(rows), header)


def exp_stability(cfg: ExperimentConfig, trend_slack: float = 1.1) -> ExperimentResult:
    """Epsilon sweep of the orbit distance along perturbed RH evolutions.

    The orbit is the one whose stability the paper proves at cfg.alpha:
    for alpha != 0 the wave is stable up to rotations about the polar
    axis, so the distance is to the polar-rotation orbit; for alpha = 0
    it is stable up to all of SO(3), so the distance is to the full
    rotation orbit.  The sweep passes when sup_t d(t) does not increase
    as epsilon shrinks, within the stated slack.
    """
    dist_orbit = dist_polar_orbit if cfg.alpha != 0.0 else dist_so3_orbit
    Y, state, zeta0 = _rh_ingredients(cfg)
    eta = random_bandlimited(cfg.L, cfg.seed, cfg.max_degree)
    solver = _solver_config(cfg)
    target = zeta0
    rows = []
    sups = []
    messages = []
    ok = True
    for eps in cfg.epsilons:
        z0 = SpectralField(cfg.L, zeta0.coeffs + eps * eta.coeffs)
        sup_d = drift_e = drift_c1 = 0.0
        for t, zeta in evolve(z0, solver):
            d, _ = dist_orbit(zeta, target, cfg.p)
            rows.append((eps, t, d))
            sup_d = max(sup_d, d)
            # conservation side-channel on the same run
            e = energy_proxy(zeta)
            c1 = c1_phase_corrected(zeta, cfg.omega, t)
            if t == 0.0:
                e0, c1_0 = e, c1
            drift_e = max(drift_e, abs(e - e0) / abs(e0))
            drift_c1 = max(drift_c1, float(np.max(np.abs(c1 - c1_0))))
        sups.append(sup_d)
        if drift_e >= 1e-6 or drift_c1 >= 1e-8:
            ok = False
            messages.append(
                f"eps={eps:g}: conservation drift energy {drift_e:.2e}, c1 {drift_c1:.2e}"
            )
        messages.append(f"eps={eps:g}: sup_t d(t) = {sup_d:.6e}")
    for i in range(len(sups) - 1):
        if sups[i + 1] > trend_slack * sups[i]:
            ok = False
            messages.append(
                f"sup distance grew from {sups[i]:.3e} to {sups[i + 1]:.3e} as epsilon shrank"
            )
    header = ("epsilon", "t", "orbit_distance")
    _write_csv(cfg, header, rows)
    return ExperimentResult(cfg.name, ok, tuple(messages), tuple(rows), header)


def exp_orbit_traversal(cfg: ExperimentConfig, dip_time_slack: float = 0.05) -> ExperimentResult:
    """Track the distance from an alpha-perturbed RH evolution to one fixed
    rotated point of the unperturbed orbit.

    The perturbed wave drifts at c_delta = (alpha+delta)/3 - omega, so it
    passes nearest the target rotated by beta_target at
    t* = beta_target / (c_delta - c_target_drift); since the target is
    frozen in time the prediction is t* = beta_target / c_delta.  Passing
    requires the distance to dip below 2 delta ||sin theta|| within
    dip_time_slack of t*.
    """
    Y, state, zeta0 = _rh_ingredients(cfg)
    delta = cfg.delta
    target = SpectralField(
        cfg.L, sin_theta_field(cfg.L, cfg.alpha).coeffs
        + rotate_polar(Y, -cfg.beta_target).coeffs
    )
    pert = make_rh(cfg.omega, cfg.alpha + delta, Y)
    if abs(pert.speed_c) < 1e-12:
        raise ValueError("perturbed drift speed vanishes; no traversal occurs")
    t_pred = cfg.beta_target / pert.speed_c
    if t_pred < 0:
        t_pred = (cfg.beta_target - 2.0 * np.pi) / pert.speed_c
    rows = [(t, lp_distance(zeta, target, cfg.p))
            for t, zeta in evolve(exact_state(pert, 0.0), _solver_config(cfg))]
    header = ("t", "distance_to_target")
    _write_csv(cfg, header, rows)
    threshold = 2.0 * delta * SIN_THETA_NORM
    below = [t for t, d in rows if d < threshold]
    messages = [f"dip threshold {threshold:.6e}, predicted dip time {t_pred:.4f}"]
    if not below:
        min_t, min_d = min(rows, key=lambda r: r[1])
        return ExperimentResult(
            cfg.name, False,
            tuple(messages + [f"never dipped; min distance {min_d:.3e} at t={min_t:.3f}"]),
            tuple(rows), header)
    t_dip = min(below, key=lambda t: abs(t - t_pred))
    ok = abs(t_dip - t_pred) <= dip_time_slack * abs(t_pred)
    messages.append(f"dipped at t={t_dip:.4f} ({abs(t_dip - t_pred) / abs(t_pred):.2%} from prediction)")
    return ExperimentResult(cfg.name, ok, tuple(messages), tuple(rows), header)


def default_rearrange_stream(L: int) -> SpectralField:
    """Unit-norm real part of the degree-3, order-1 harmonic; L < 3 raises ValueError."""
    if L < 3:
        raise ValueError(f"the rearrangement stream has degree 3, so it needs L >= 3, got L={L}")
    return from_coeff_dict(L, {(3, 1): 1.0 / np.sqrt(2.0)})


def exp_rearrangement_bound(cfg: ExperimentConfig, bound_tol: float = 1e-6,
                            moment_tol: float = 1e-6) -> ExperimentResult:
    """Advect an RH state by a fixed non-Euler stream and watch the
    degree-2 functional stay below its rearrangement-class maximum.

    The prescribed transport wanders through (a discrete shadow of) the
    rearrangement class of the initial state: the moments stay fixed
    while the functional strictly decreases away from the maximizing set.
    """
    Y, state, zeta0 = _rh_ingredients(cfg)
    chi = default_rearrange_stream(cfg.L)
    M = e_deg2_max(cfg.alpha, norm_l2(Y) ** 2)
    rows = []
    for t, zeta in evolve(zeta0, _solver_config(cfg, stream=chi)):
        val = e_deg2(zeta, cfg.alpha)
        mom = np.asarray(moments_numeric(zeta, 7))
        if t == 0.0:
            m0 = mom
        drift = float(np.max(np.abs(mom - m0) / np.maximum(np.abs(m0), 1e-30)))
        rows.append((t, val, val - M, drift))
    max_excess = max(r[2] for r in rows)
    max_moment_drift = max(r[3] for r in rows)
    ok = max_excess <= bound_tol and max_moment_drift < moment_tol
    messages = (
        f"max (e_deg2 - M) = {max_excess:.3e} (bound {bound_tol:g})",
        f"max moment drift = {max_moment_drift:.3e} (bound {moment_tol:g})",
        f"final e_deg2 - M = {rows[-1][2]:.3e}",
    )
    header = ("t", "e_deg2", "excess_over_max", "moment_drift")
    _write_csv(cfg, header, rows)
    return ExperimentResult(cfg.name, ok, messages, tuple(rows), header)


# --------------------------------------------------------------------------
# key=value configuration files
# --------------------------------------------------------------------------


def parse_config_file(path) -> dict:
    """Flat key=value lines with '#' comments, mirroring ExperimentConfig; no key set twice."""
    out = {}
    first = {}  # key -> the line that set it, and its number
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = (s.strip() for s in line.split("=", 1))
            here = f"{raw.rstrip()} (line {lineno})"
            if key in out:
                raise ValueError(f"bad config line: {here} sets {key!r} again, after {first[key]}")
            out[key] = value
            first[key] = here
    return out


def parse_finite_float(text: str) -> float:
    """A finite float; anything else raises ValueError naming the text."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer") from None


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(parse_finite_float(v) for v in text.split(","))


def parse_e2(text: str) -> E2Coeffs:
    """Five comma-separated finite floats a,b,c,d,e."""
    parts = _parse_floats(text)
    if len(parts) != 5:
        raise ValueError("expected five comma-separated values a,b,c,d,e")
    return E2Coeffs(*parts)


def _format_floats(values) -> str:
    return ",".join(f"{v:.17g}" for v in values)


# the parser of each ExperimentConfig field, and the writer that it reads
# back exactly (floats to 17 significant digits), chosen by the field's type
_TYPE_PARSERS = {int: _parse_int, float: parse_finite_float, tuple[float, ...]: _parse_floats,
                 E2Coeffs: parse_e2, str: str, str | None: str}
_TYPE_FORMATTERS = {int: str, float: "{:.17g}".format, tuple[float, ...]: _format_floats,
                    E2Coeffs: lambda y: _format_floats(y.as_tuple()), str: str}
_FIELD_TYPES = get_type_hints(ExperimentConfig)
CONFIG_PARSERS = {key: _TYPE_PARSERS[kind] for key, kind in _FIELD_TYPES.items()}
# output_path names where a run is written, not what it is
CONFIG_FORMATTERS = {key: _TYPE_FORMATTERS[kind] for key, kind in _FIELD_TYPES.items()
                     if key != "output_path"}


def config_comments(cfg: ExperimentConfig) -> list[str]:
    """`rhlab <version>`, then `key=value` for each config field but output_path, in field order.

    `config_from_mapping` of the key=value lines gives back cfg with
    output_path None.
    """
    return [f"rhlab {__version__}"] + [f"{key}={write(getattr(cfg, key))}"
                                       for key, write in CONFIG_FORMATTERS.items()]


def config_from_mapping(mapping: dict, **defaults) -> ExperimentConfig:
    """Build an ExperimentConfig from string key=value pairs, each parsed by `CONFIG_PARSERS`.

    A value that does not parse, or a non-finite number, raises a
    ValueError naming the key and the value.
    """
    cfg = ExperimentConfig(**defaults) if defaults else ExperimentConfig()
    updates = {}
    for key, value in mapping.items():
        if key not in CONFIG_PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            updates[key] = CONFIG_PARSERS[key](value)
        except ValueError as err:
            raise ValueError(f"config key {key!r}: {err}") from None
    return replace(cfg, **updates)
