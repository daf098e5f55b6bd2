"""Command-line surface for the laboratory.

Subcommands: rh-verify, stability, traversal, rearrange, invariants,
classify, orbit-dist.  Experiment subcommands read a flat key=value
config file (see experiments.parse_config_file) with command-line
key=value overrides; the exit code is 0 exactly when every in-run
assertion passed.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import NoReturn

from .experiments import (
    ExperimentResult,
    check_stability_group,
    config_from_mapping,
    exp_orbit_traversal,
    exp_rearrangement_bound,
    exp_rh_exactness,
    exp_stability,
    parse_config_file,
)
from .harmonics import E2Coeffs, load_spectral
from .invariants_algebra import invariants_csv_row, same_h_orbit_deg2, same_o3_orbit
from .orbit_metrics import check_p, dist_polar_orbit, dist_so3_orbit


def _finite_float(text: str) -> float:
    """A finite float; anything else is an argparse error (exit code 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _parse_e2(text: str) -> E2Coeffs:
    parts = [_finite_float(v) for v in text.split(",")]
    if len(parts) != 5:
        raise argparse.ArgumentTypeError("expected five comma-separated values a,b,c,d,e")
    return E2Coeffs(*parts)


def _add_experiment_args(sub):
    sub.add_argument("--config", help="key=value configuration file")
    sub.add_argument("overrides", nargs="*", metavar="key=value",
                     help="config overrides applied after the file")


# keys that only one experiment reads; every other key is read, or
# recorded in the CSV header, by every experiment
_KEY_OWNERS = {
    "epsilons": "stability",
    "max_degree": "stability",
    "group": "stability",
    "delta": "traversal",
    "beta_target": "traversal",
}


def _build_config(args):
    """The config file with overrides applied, and the orbit group.

    A config that cannot be read or parsed, holds an out-of-range value,
    sets a key that only another subcommand reads, or names a stability
    group that does not apply ends the process with one line on stderr
    and exit code 2.
    """
    try:
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
        group = mapping.pop("group", "polar")
        cfg = config_from_mapping(mapping)
        if args.command == "stability":
            check_stability_group(group, cfg.alpha)
        return cfg, group
    except (OSError, ValueError) as err:
        _input_error(args.command, err)


def _input_error(command: str, err: Exception) -> NoReturn:
    """End the process with one line on stderr and exit code 2."""
    print(f"rhlab {command}: {err}", file=sys.stderr)
    raise SystemExit(2) from None


def _report(result: ExperimentResult) -> int:
    for msg in result.messages:
        print(f"{result.name}: {msg}")
    print(f"{result.name}: {'PASS' if result.ok else 'FAIL'}")
    return 0 if result.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rhlab",
        description="Rossby-Haurwitz stability laboratory",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("rh-verify", "stability", "traversal", "rearrange"):
        sub = subs.add_parser(name)
        _add_experiment_args(sub)

    inv = subs.add_parser("invariants", help="print the invariant tuple of a degree-2 field")
    inv.add_argument("--alpha", type=_finite_float, default=0.0)
    inv.add_argument("--y", type=_parse_e2, required=True, metavar="a,b,c,d,e")

    cls = subs.add_parser("classify", help="orbit classification of two degree-2 fields")
    cls.add_argument("--y", type=_parse_e2, required=True, metavar="a,b,c,d,e")
    cls.add_argument("--yp", type=_parse_e2, required=True, metavar="a,b,c,d,e")

    od = subs.add_parser("orbit-dist", help="distance from a field to an orbit")
    od.add_argument("--f", required=True, help="spectral text file of the field")
    od.add_argument("--target", required=True, help="spectral text file of the orbit base point")
    od.add_argument("--group", choices=("polar", "so3"), default="polar")
    od.add_argument("--p", type=float, default=2.0)
    od.add_argument("--reflection", action="store_true",
                    help="include the longitude reflection in the polar orbit")

    args = parser.parse_args(argv)

    if args.command in ("rh-verify", "stability", "traversal", "rearrange"):
        cfg, group = _build_config(args)
        if args.command == "rh-verify":
            return _report(exp_rh_exactness(cfg))
        if args.command == "stability":
            return _report(exp_stability(cfg, group=group))
        if args.command == "traversal":
            return _report(exp_orbit_traversal(cfg))
        return _report(exp_rearrangement_bound(cfg))

    if args.command == "invariants":
        print("a,u,v,w,p1,p0,I2,I3,I4,I5,I6,I7")
        print(invariants_csv_row(args.y, alpha=args.alpha))
        return 0

    if args.command == "classify":
        h = same_h_orbit_deg2(args.y, args.yp)
        o = same_o3_orbit(args.y, args.yp)
        print(f"same_h_orbit: {h}")
        print(f"same_o3_orbit: {o}")
        return 0

    if args.command == "orbit-dist":
        try:
            f = load_spectral(args.f)
            target = load_spectral(args.target)
            check_p(args.p)
            if f.L != target.L:
                raise ValueError(f"--f has L = {f.L} but --target has L = {target.L}")
        except (OSError, ValueError) as err:
            _input_error(args.command, err)
        if args.group == "polar":
            d, beta = dist_polar_orbit(f, target, args.p,
                                       include_reflection=args.reflection)
            print(f"distance: {d:.17g}")
            print(f"beta_star: {beta:.17g}")
        else:
            d, euler = dist_so3_orbit(f, target, args.p)
            print(f"distance: {d:.17g}")
            print("euler_star: " + ",".join(f"{v:.17g}" for v in euler))
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
