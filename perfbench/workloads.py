"""The benchmark's workloads: shipped configs plus CLI overrides.

Each workload is one `rhlab` subcommand on a config from
`scripts/configs/`, shortened in `t_end` so that a run repeats the call
several times.  Shortening `t_end` leaves the work per step and per
diagnostic unchanged.  Every count a run can be checked against is
derived here from the config, not from the program's output.

Importing this module needs neither numpy nor rhlab: the orchestrator
imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 11  # the seed in stability_so3.cfg


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # rhlab subcommand
    config: str                  # path relative to the checkout root
    overrides: tuple[str, ...]   # key=value, applied after the config
    header: tuple[str, ...]      # expected CSV header
    accuracy: str                # name of the accuracy quantity read from the CSV
    seeded: bool                 # whether --seed reaches the program
    why: str

    def settings(self, root: Path, seed: int) -> dict:
        """The effective key=value settings: config file, then overrides."""
        from rhlab.experiments import parse_config_file

        out = parse_config_file(root / self.config)
        for item in self.overrides_for(seed):
            key, value = item.split("=", 1)
            out[key] = value
        return out

    def overrides_for(self, seed: int) -> tuple[str, ...]:
        return self.overrides + ((f"seed={seed}",) if self.seeded else ())

    def argv(self, root: Path, seed: int, output_path: Path) -> list[str]:
        return [self.command, "--config", str(root / self.config),
                *self.overrides_for(seed), f"output_path={output_path}"]


def counts(settings: dict) -> dict:
    """Counts a correct run must reproduce exactly, derived from settings."""
    dt = float(settings["dt"])
    n_steps = int(round(float(settings["t_end"]) / dt))
    diag_every = int(settings["diag_every"])
    n_diag = n_steps // diag_every + 1 + (1 if n_steps % diag_every else 0)
    n_eps = len(settings["epsilons"].split(",")) if "epsilons" in settings else 1
    return {
        "L": int(settings["L"]),
        "n_eps": n_eps,
        "n_steps": n_steps,
        "n_diag": n_diag,
        "steps": n_eps * n_steps,
        "csv_rows": n_eps * n_diag,
    }


def expected_calls(command: str, c: dict) -> dict[str, int]:
    """Traced call counts per CLI call that follow from the config alone.

    RK4 makes four tendency evaluations per step; in coupled mode each is
    one advection_tendency, while the prescribed stream of `rearrange`
    bypasses it.  `stability` measures one orbit distance per CSV row.
    """
    coupled = command != "rearrange"
    return {
        "cli.main.calls": 1,
        "dynamics.Stepper.step.calls": c["steps"],
        "dynamics.Stepper.tendency.calls": 4 * c["steps"],
        "operators.advection_tendency.calls": 4 * c["steps"] if coupled else 0,
        "orbit_metrics.dist_so3_orbit.calls": c["csv_rows"] if command == "stability" else 0,
    }


CONFIGS = "scripts/configs"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rh-exactness-L21",
            command="rh-verify",
            config=f"{CONFIGS}/rh_exactness.cfg",
            overrides=("t_end=0.5",),
            header=("t", "rel_l2_error"),
            accuracy="rh_err",
            seeded=False,
            why="small-L coupled stepping, where per-call Python overhead dominates; "
                "one table build and no orbit or moment work",
        ),
        Workload(
            name="rh-exactness-L170",
            command="rh-verify",
            config=f"{CONFIGS}/rh_exactness.cfg",
            overrides=("L=170", "t_end=0.003"),
            header=("t", "rel_l2_error"),
            accuracy="rh_err",
            seeded=False,
            why="large-L coupled stepping whose Legendre tables exceed the last-level "
                "cache, so bytes moved set the step time",
        ),
        Workload(
            name="rearrange-L90",
            command="rearrange",
            config=f"{CONFIGS}/rearrangement.cfg",
            overrides=("t_end=0.05",),
            header=("t", "e_deg2", "excess_over_max", "moment_drift"),
            accuracy="moment_drift",
            seeded=False,
            why="large-L prescribed-stream stepping (Stepper.tendency) plus "
                "moments_numeric, which rebuilds an oversampled grid per call",
        ),
        Workload(
            name="stability-so3-L12",
            command="stability",
            config=f"{CONFIGS}/stability_so3.cfg",
            # At the shipped L=21 one call takes 22-41 s, too long to repeat
            # within a run; at L=12 it takes ~7 s and keeps every epsilon.
            overrides=("L=12", "t_end=0.1"),
            header=("epsilon", "t", "orbit_distance"),
            accuracy="sup_dist_over_eps",
            seeded=True,
            why="SO(3) orbit distances: Nelder-Mead over rotate_so3 and lp_distance, "
                "each evaluation rebuilding a grid and its tables",
        ),
    )
}

NO_SEED_REASON = ("the workload's cost does not depend on coefficient values, so its "
                  "inputs are the shipped config and --seed does not reach the program")


def read_csv(path: Path, header: tuple[str, ...]) -> list[list[float]]:
    """Data rows of a diagnostics CSV; raises ValueError on a malformed file."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or tuple(body[0].split(",")) != header:
        raise ValueError(f"CSV header {body[:1]} != expected {list(header)}")
    rows = [[float(v) for v in ln.split(",")] for ln in body[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("CSV row width does not match its header")
    return rows


def accuracy(workload: Workload, rows: list[list[float]]) -> dict:
    """The workload's accuracy numbers, read from its CSV rows.

    rh_err: max relative L2 error against the closed-form wave.
    moment_drift: max relative drift of the moments I2..I7.
    sup_dist_over_eps: max over epsilon of sup_t d(t) / epsilon, the
    constant of the measured orbit bound.

    accuracy_digits is -log10 of the residual: of rh_err or moment_drift,
    and for the orbit bound of the distance it gives at a perturbation of
    ORBIT_REF_EPS, so that the config's epsilons drop out.
    """
    col = {name: i for i, name in enumerate(workload.header)}
    if workload.accuracy == "rh_err":
        value = max(r[col["rel_l2_error"]] for r in rows)
        out = {"rh_err": value, "rh_err_log10": log10_floored(value)}
    elif workload.accuracy == "moment_drift":
        value = max(r[col["moment_drift"]] for r in rows)
        out = {"moment_drift": value, "moment_drift_log10": log10_floored(value)}
    else:
        sups: dict[float, float] = {}
        for r in rows:
            eps = r[col["epsilon"]]
            sups[eps] = max(sups.get(eps, 0.0), r[col["orbit_distance"]])
        ratio = max(d / eps for eps, d in sups.items())
        out = {"sup_dist_over_eps": ratio}
        value = ratio * ORBIT_REF_EPS
    if not all(math.isfinite(v) for v in out.values()):
        raise ValueError(f"non-finite accuracy numbers {out}")
    out["accuracy_digits"] = -log10_floored(value)
    return out


ORBIT_REF_EPS = 1e-2  # a 1% perturbation
LOG10_FLOOR = 1e-17  # below double-precision roundoff of O(1) quantities


def log10_floored(x: float) -> float:
    """log10 of |x|, floored so an exact zero is still a number."""
    return math.log10(max(abs(x), LOG10_FLOOR))
