"""Command-line surface for the laboratory.

Subcommands: rh-verify, stability, traversal, rearrange, invariants,
classify, orbit-dist.  Experiment subcommands read a flat key=value
config file (see experiments.parse_config_file) with command-line
key=value overrides; the exit code is 0 exactly when every in-run
assertion passed and 1 when one failed.

Every failure takes one path.  `main` runs the subcommand inside one
handler: an OSError, ValueError or FloatingPointError ends the process
with one line on stderr, such as "rhlab stability: non-finite tendency
at step 1", and exit code 2; an OverflowError does too, as "rhlab
<cmd>: coefficients too large for float arithmetic: <err>".  Nothing
reaches stdout first, and a run that fails writes no CSV.  Each input
rule lives in the code that applies it and raises there: a config's
ranges in `ExperimentConfig`, an experiment's own rules in the
experiment, before its first step, and a blow-up in
`dynamics.Stepper.step`.  The price of one handler: a ValueError from a
fault in the numerics also ends as one line, which names it; the tests
call the experiments directly and so still see its traceback.
"""

from __future__ import annotations

import argparse
import sys
import numpy as np

from . import experiments
from .experiments import (
    ExperimentResult,
    config_from_mapping,
    parse_config_file,
    parse_e2,
    parse_finite_float,
)
from .grid import MAX_L
from .harmonics import load_spectral
from .invariants_algebra import invariants_csv_row, same_h_orbit_deg2, same_o3_orbit
from .orbit_metrics import check_p, dist_polar_orbit, dist_so3_orbit


def _argument(parse):
    """`parse` as an argparse type: its ValueError is an argument error (exit code 2)."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return convert


def _add_experiment_args(sub):
    sub.add_argument("--config", help="key=value configuration file")
    sub.add_argument("overrides", nargs="*", metavar="key=value",
                     help="config overrides applied after the file")


# each subcommand's function in `experiments`, looked up when it runs, so
# that a wrapper installed on the module (a tracer, a test's stub) is called
_EXPERIMENTS = {"rh-verify": "exp_rh_exactness", "stability": "exp_stability",
                "traversal": "exp_orbit_traversal", "rearrange": "exp_rearrangement_bound"}

# keys that only one experiment reads, and the others reject; every
# experiment's CSV records every key
_KEY_OWNERS = {
    "epsilons": "stability",
    "max_degree": "stability",
    "delta": "traversal",
    "beta_target": "traversal",
}


def _build_config(args):
    """The config file with overrides applied.

    Overrides replace the file's values, a later one an earlier one.  An
    override that is not key=value, or a key that only another
    subcommand reads, raises ValueError here; the file's own rules are
    `parse_config_file`'s, and the values' rules `ExperimentConfig`'s.
    """
    mapping = parse_config_file(args.config) if args.config else {}
    for item in args.overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    for key in mapping:
        owner = _KEY_OWNERS.get(key, args.command)
        if owner != args.command:
            raise ValueError(f"config key {key!r} is read only by rhlab {owner}")
    return config_from_mapping(mapping)


def _report(result: ExperimentResult) -> int:
    for msg in result.messages:
        print(f"{result.name}: {msg}")
    print(f"{result.name}: {'PASS' if result.ok else 'FAIL'}")
    return 0 if result.ok else 1


def _run(args) -> int:
    """The subcommand's work and its exit code; a failure raises to `main`."""
    if args.command in _EXPERIMENTS:
        run = getattr(experiments, _EXPERIMENTS[args.command])
        return _report(run(_build_config(args)))

    if args.command == "invariants":
        lines = ("a,u,v,w,p1,p0,I2,I3,I4,I5,I6,I7",
                 invariants_csv_row(args.y, alpha=args.alpha))
    elif args.command == "classify":
        lines = (f"same_h_orbit: {same_h_orbit_deg2(args.y, args.yp)}",
                 f"same_o3_orbit: {same_o3_orbit(args.y, args.yp)}")
    else:  # orbit-dist
        f = load_spectral(args.f)
        target = load_spectral(args.target)
        check_p(args.p)
        if f.L != target.L:
            raise ValueError(f"--f has L = {f.L} but --target has L = {target.L}")
        # load_spectral has rejected L > MAX_L
        if args.p != 2.0 and f.L < 2:
            raise ValueError(f"p = {args.p:g} integrates on a grid, which needs "
                             f"2 <= L <= {MAX_L}; the fields have L = {f.L}")
        if args.group == "polar":
            d, beta = dist_polar_orbit(f, target, args.p, include_reflection=args.reflection)
            lines = (f"distance: {d:.17g}", f"beta_star: {beta:.17g}")
        else:
            d, euler = dist_so3_orbit(f, target, args.p)
            lines = (f"distance: {d:.17g}", "euler_star: " + ",".join(f"{v:.17g}" for v in euler))
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rhlab",
        description="Rossby-Haurwitz stability laboratory",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name in _EXPERIMENTS:
        sub = subs.add_parser(name)
        _add_experiment_args(sub)

    inv = subs.add_parser("invariants", help="print the invariant tuple of a degree-2 field")
    inv.add_argument("--alpha", type=_argument(parse_finite_float), default=0.0)
    inv.add_argument("--y", type=_argument(parse_e2), required=True, metavar="a,b,c,d,e")

    cls = subs.add_parser("classify", help="orbit classification of two degree-2 fields")
    cls.add_argument("--y", type=_argument(parse_e2), required=True, metavar="a,b,c,d,e")
    cls.add_argument("--yp", type=_argument(parse_e2), required=True, metavar="a,b,c,d,e")

    od = subs.add_parser("orbit-dist", help="distance from a field to an orbit")
    od.add_argument("--f", required=True, help="spectral text file of the field")
    od.add_argument("--target", required=True, help="spectral text file of the orbit base point")
    od.add_argument("--group", choices=("polar", "so3"), default="polar")
    od.add_argument("--p", type=float, default=2.0)
    od.add_argument("--reflection", action="store_true",
                    help="include the longitude reflection in the polar orbit")

    args = parser.parse_args(argv)
    try:
        # a blow-up is reported once, by the check that meets it, and
        # not also by numpy's warnings on the way to it
        with np.errstate(over="ignore", invalid="ignore"):
            return _run(args)
    except OverflowError as err:
        message = f"coefficients too large for float arithmetic: {err}"
    except (OSError, ValueError, FloatingPointError) as err:
        message = str(err)
    print(f"rhlab {args.command}: {message}", file=sys.stderr)
    raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
