"""Spans around calls into rhlab's public functions, recorded from outside.

The tracer replaces each traced function with a timing wrapper wherever
a module of the package binds it (the defining module and every module
that imported the name), and each traced `Stepper` method on the class.
Spans (name, start, end, parent) are kept in memory for one CLI call and
summarized when it ends.  A layer's self time is its span's duration
minus the time covered by its child spans.

Wrappers hold no reference to call arguments or results: a retained
GridSpec would keep its entry alive in the weak-keyed table cache and
change what is measured.  Extra counts (flops, points, table bytes) are
computed from argument shapes before the call and stored as numbers.

Everything runs on one thread with no queue, so there is no waiting to
record.
"""

from __future__ import annotations

import functools
import sys
import time

FLOPS_PER_MAC = 4  # complex coefficient times real table entry: 2 mul + 2 add
BYTES_PER_FLOAT = 8
PACKAGE = "rhlab"
TABLES_PER_GRID = 3  # P, Pw and dP in harmonics.grid_tables


def _spec_flops(c, spec, *args, **kwargs):
    """Dense Legendre contraction of one synthesis on `spec`."""
    return FLOPS_PER_MAC * (spec.L + 1) ** 2 * spec.n_lat


def _analyze_flops(f, L, *args, **kwargs):
    return FLOPS_PER_MAC * (L + 1) ** 2 * f.spec.n_lat


def _points(c, phi, theta, *args, **kwargs):
    import numpy as np

    return np.broadcast(np.atleast_1d(phi), np.atleast_1d(theta)).size


def _table_bytes(spec, *args, **kwargs):
    return TABLES_PER_GRID * (spec.L + 1) ** 2 * spec.n_lat * BYTES_PER_FLOAT


# (module, qualified name, extra count computed from the arguments)
TARGETS = (
    ("grid", "build_grid", None),
    ("harmonics", "grid_tables", _table_bytes),
    ("harmonics", "norm_legendre_table", None),
    ("harmonics", "synthesize", _spec_flops),
    ("harmonics", "synthesize_dphi", _spec_flops),
    ("harmonics", "synthesize_dtheta", _spec_flops),
    ("harmonics", "analyze", _analyze_flops),
    ("harmonics", "eval_point", _points),
    ("operators", "advection_tendency", None),
    ("operators", "stream_function", None),
    ("rotations", "rotate_so3", None),
    ("rh_waves", "exact_state", None),
    ("functionals", "energy_proxy", None),
    ("functionals", "c1_triple", None),
    ("functionals", "e_deg2", None),
    ("dynamics", "Stepper.__init__", None),
    ("dynamics", "Stepper.step", None),
    ("dynamics", "Stepper.tendency", None),
    ("invariants_algebra", "moments_numeric", None),
    ("orbit_metrics", "lp_distance", None),
    ("orbit_metrics", "dist_so3_orbit", None),
    ("experiments", "exp_rh_exactness", None),
    ("experiments", "exp_rearrangement_bound", None),
    ("experiments", "exp_stability", None),
    ("experiments", "parse_config_file", None),
    ("cli", "main", None),
)

NAMES = tuple(f"{mod}.{qual}" for mod, qual, _ in TARGETS)
FLOP_LAYERS = {"harmonics.synthesize", "harmonics.synthesize_dphi",
               "harmonics.synthesize_dtheta", "harmonics.analyze"}


# Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in NAMES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "harmonics.grid_tables.builds": "count",
    "harmonics.grid_tables.hit_ratio": "ratio",
    "harmonics.eval_point.points": "count",
    "harmonics.legendre_gflop": "GFLOP",  # computed from array shapes
    "harmonics.table_mb": "MB",           # computed from array shapes
    "orbit_metrics.dist_so3_orbit.evals_per_call": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs timing wrappers into an imported rhlab package."""

    def __init__(self):
        self._patches: list[tuple[object, str, object, object]] = []
        self.bindings: dict[str, list[str]] = {}
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.extras: list[float] = []
        self._stack = [-1]

    def _wrap(self, nid: int, fn, extra):
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, extras, stack = self.parents, self.extras, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            x = extra(*args, **kwargs) if extra is not None else 0
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            extras.append(x)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for nid, (mod, qual, extra) in enumerate(TARGETS):
            owner = sys.modules[f"{PACKAGE}.{mod}"]
            if "." in qual:  # a method: patch it on its class only
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                sites = [(cls, attr, f"{mod}.{qual}")]
            else:
                original = getattr(owner, qual)
                sites = [(m, attr, f"{m.__name__.removeprefix(PACKAGE + '.')}.{attr}")
                         for m in modules for attr, value in vars(m).items()
                         if value is original]
            wrapper = self._wrap(nid, original, extra)
            self.bindings[NAMES[nid]] = [label for _, _, label in sites]
            for target, attr, _ in sites:
                setattr(target, attr, wrapper)
                self._patches.append((target, attr, original, wrapper))

    def uninstall(self) -> None:
        for target, attr, original, wrapper in reversed(self._patches):
            if getattr(target, attr) is wrapper:
                setattr(target, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per-layer counts and self times of the spans recorded so far."""
        n = len(self.starts)
        k = len(NAMES)
        calls = [0] * k
        self_s = [0.0] * k
        child_s = [0.0] * n
        has_child = [False] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_s[p] += self.ends[i] - self.starts[i]
                has_child[p] = True
        nid_of = {name: i for i, name in enumerate(NAMES)}
        tables = nid_of["harmonics.grid_tables"]
        rotate = nid_of["rotations.rotate_so3"]
        dist = nid_of["orbit_metrics.dist_so3_orbit"]
        flop_ids = {nid_of[name] for name in FLOP_LAYERS}
        builds = flops = points = evals = 0
        table_bytes = 0
        for i in range(n):
            nid = self.name_ids[i]
            calls[nid] += 1
            self_s[nid] += self.ends[i] - self.starts[i] - child_s[i]
            if nid == tables and has_child[i]:  # a cache miss builds the tables
                builds += 1
                table_bytes = max(table_bytes, self.extras[i])
            elif nid in flop_ids:
                flops += self.extras[i]
            elif nid == nid_of["harmonics.eval_point"]:
                points += self.extras[i]
            elif nid == rotate and self.parents[i] >= 0 and self.name_ids[self.parents[i]] == dist:
                evals += 1
        out = {}
        for nid, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        out["harmonics.grid_tables.builds"] = builds
        out["harmonics.grid_tables.hit_ratio"] = (
            1.0 - builds / calls[tables] if calls[tables] else 0.0)
        out["harmonics.eval_point.points"] = points
        out["harmonics.legendre_gflop"] = flops / 1e9
        out["harmonics.table_mb"] = table_bytes / 2 ** 20
        out["orbit_metrics.dist_so3_orbit.evals_per_call"] = (
            evals / calls[dist] if calls[dist] else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i in range(len(self.starts)):
                fh.write(f"{i},{NAMES[self.name_ids[i]]},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]}\n")


def self_check(summaries: list[dict], expected: dict[str, int]) -> list[str]:
    """Problems with the traced counts; empty when every check holds.

    Counts must repeat exactly across traced calls and equal the values
    derived from the config, so a binding the tracer missed fails loudly.
    """
    problems = []
    for key in (k for k in summaries[0] if k.endswith(".calls")):
        seen = {s[key] for s in summaries}
        if len(seen) > 1:
            problems.append(f"{key} differs between calls: {sorted(seen)}")
    for key, want in expected.items():
        got = summaries[0][key]
        if got != want:
            problems.append(f"{key} = {got}, expected {want} from the config")
    return problems
