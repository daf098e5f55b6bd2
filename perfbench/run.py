"""rhlab benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload rh-exactness-L21 --seed 11 --seconds 28 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's `src/`.  Each CLI call runs in a fresh
`python3 perfbench/worker.py` process with BLAS/OpenMP pinned to one
thread, as a user's call would; set-up is timed in processes of its own.
Both repeat until --seconds are spent and medians are reported.
--trace 0 reports the end-to-end metrics (wall time and steps per second
of the CLI call, set-up time, peak RSS, accuracy); --trace 1 reports per-layer call counts and self times from
spans recorded around calls into rhlab's public functions, plus the
tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full record
(environment, every sample, traced bindings) is written to
`.perfbench_out/` in the checkout.  Exits 2 without a result when the
checkout lacks the program or its configs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER_UNITS, self_check
from workloads import DEFAULT_SEED, NO_SEED_REASON, WORKLOADS, expected_calls, log10_floored

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5      # fresh processes timing set-up, interleaved with the calls
RUN_LIMIT_S = 170      # every run, set-up included, ends within this
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}
REPORT_UNITS = {
    "fail_ratio": "failed/attempted",
    "rh_err_log10": "log10",
    "moment_drift_log10": "log10",
    "sup_dist_over_eps": "ratio",
}


def worker(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh pinned process; return its JSON record."""
    env = {**os.environ, **PINNED}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def source_version() -> dict:
    """git SHA when the checkout is a repository, and a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rhlab").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def attempt(args: list[str], timeout: float) -> dict:
    """One worker; a crash or time-out becomes a record with a problem."""
    try:
        rec = worker(args, timeout)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return {"problem": f"worker failed: {exc}"}
    rec.setdefault("problem", None)
    return rec


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Fresh worker processes until `seconds` are spent: (calls, set-ups).

    Untraced, SETUP_SAMPLES set-up processes are interleaved with the
    first calls.  Traced, the calls alternate untraced, traced, ..., and
    at least one of each is made.
    """
    started = time.monotonic()
    calls, setups = [], []
    args = ["--seed", str(seed)]

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    while True:
        t0 = time.monotonic()
        if not trace and len(setups) < SETUP_SAMPLES:
            setups.append(attempt(["setup", workload.name, *args], left()))
        traced = trace and sum(r["traced"] for r in calls) < len(calls) / 2
        rec = attempt(["call", workload.name, *args, "--trace", str(int(traced))], left())
        rec["traced"] = traced
        calls.append(rec)
        took = time.monotonic() - t0
        have_all = (len(setups) >= SETUP_SAMPLES if not trace
                    else {r["traced"] for r in calls} == {False, True})
        if have_all and time.monotonic() - started + took > seconds:
            return calls, setups


def end_to_end(ok: list[dict], setup_samples: list[float]) -> tuple[dict, dict]:
    """(JSON metrics, metrics printed only on the report lines) over good calls."""
    wall = statistics.median(r["wall_s"] for r in ok)
    accs = [r["accuracy"] for r in ok]
    metrics = {
        "wall_s": wall,
        "steps_per_s": ok[0]["counts"]["steps"] / wall,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "accuracy_digits": min(a["accuracy_digits"] for a in accs),  # the worst call
    }
    if "rh_err" in accs[0]:
        extra = {"rh_err_log10": log10_floored(max(a["rh_err"] for a in accs))}
    elif "moment_drift" in accs[0]:
        extra = {"moment_drift_log10": log10_floored(max(a["moment_drift"] for a in accs))}
    else:
        extra = {"sup_dist_over_eps": max(a["sup_dist_over_eps"] for a in accs)}
    return metrics, extra


def per_layer(ok: list[dict]) -> dict:
    """Counts from the first traced call (they repeat exactly; self-checked),
    self times as the median over traced calls."""
    summaries = [r["summary"] for r in ok if r["traced"]]
    metrics = dict(summaries[0])
    for key in metrics:
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(s[key] for s in summaries)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in ok if r["traced"])
        - statistics.median(r["wall_s"] for r in ok if not r["traced"]))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    missing = [p for p in ("src/rhlab/cli.py", workload.config) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not an rhlab checkout; missing {missing}", file=sys.stderr)
        return 2

    calls, setups = measure(workload, args.seed, args.seconds, bool(args.trace))
    attempted = len(calls) + len(setups)
    failed = sum(r["problem"] is not None for r in calls + setups)
    ok = [r for r in calls if r["problem"] is None]
    setup_samples = [r["setup_s"] for r in setups if r["problem"] is None]
    if ({r["traced"] for r in ok} != {r["traced"] for r in calls}
            or (setups and not setup_samples)):
        print(f"perfbench: every call or set-up of one kind failed on {workload.name}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 0

    problems = []
    if args.trace:
        metrics = per_layer(ok)
        units = PER_LAYER_UNITS
        extra = {}
        problems = self_check([r["summary"] for r in ok if r["traced"]],
                              expected_calls(workload.command, ok[0]["counts"]))
    else:
        metrics, extra = end_to_end([r for r in ok if not r["traced"]], setup_samples)
        units = END_TO_END_UNITS
    extra["fail_ratio"] = failed / attempted
    correct = failed == 0 and not problems
    first = ok[0]

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seed_used": workload.seeded,
        "seed_note": None if workload.seeded else NO_SEED_REASON,
        "argv": workload.argv(ROOT, args.seed, "<tmp.csv>")[:-1],
        "seconds": args.seconds,
        "trace": args.trace,
        "waiting": "none: one thread and no queue, so no time is spent waiting",
        "L": first["counts"]["L"],
        "grid_shape": first["grid_shape"],
        "env": {**first["env"], **source_version()},
        "bindings": next((r["bindings"] for r in ok if r["traced"]), None),
        "setup_samples_s": setup_samples,
        "correct": correct,
        "self_check_problems": problems,
        "metrics": metrics,
        "report_metrics": extra,
        "calls": [{k: v for k, v in r.items() if k not in ("env", "bindings")} for r in calls],
        "setup_problems": [r["problem"] for r in setups if r["problem"] is not None],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {workload.name}: seed {args.seed}"
          + ("" if workload.seeded else " (unused)")
          + f", L={record['L']}, grid {record['grid_shape'][0]}x{record['grid_shape'][1]},"
          f" {len(calls)} calls, {len(setups)} set-ups")
    for name, value in {**metrics, **extra}.items():
        unit = units.get(name) or REPORT_UNITS[name]
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        print(f"  working set: largest Legendre table set {metrics['harmonics.table_mb']:.1f} MB"
              f" (computed) beside a {record['env']['llc_mb']} MB last-level cache")
    for p in problems:
        print(f"  self-check FAILED: {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
