"""One measurement process of the benchmark (started by run.py).

    python3 perfbench/worker.py setup <workload> --seed N
    python3 perfbench/worker.py call <workload> --seed N --trace 0|1

`setup` times, in this fresh process, `import rhlab` + parsing the
config + `grid_tables(default_grid(L))`.  `call` imports rhlab and makes
one CLI call through `rhlab.cli.main`, as a user's fresh process would,
and checks its outputs; with --trace 1 the call runs under the tracer.
The two are separate processes so that nothing set-up builds can serve
the timed call.  The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, accuracy, counts, read_csv  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def import_rhlab():
    """Import the program from the checkout's src/, not from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import rhlab

    if not Path(rhlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported rhlab from {rhlab.__file__}, not from {ROOT / 'src'}")
    return rhlab


def set_up(workload, seed: int) -> float:
    """Seconds for import + config parse + one table build."""
    t0 = time.perf_counter()
    import_rhlab()
    from rhlab.experiments import config_from_mapping
    from rhlab.harmonics import default_grid, grid_tables

    settings = workload.settings(ROOT, seed)
    cfg = config_from_mapping({k: v for k, v in settings.items() if k != "group"})
    grid_tables(default_grid(cfg.L))
    return time.perf_counter() - t0


def environment() -> dict:
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    llc = libc.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE in glibc
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "llc_mb": llc / 2 ** 20 if llc > 0 else None,
    }


def one_call(cli, argv) -> tuple[float, object, str]:
    """Run the CLI once; return (wall seconds, exit code or traceback, its stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse and config errors exit
        rc = exc.code
    except Exception:
        rc = "raised:\n" + traceback.format_exc()
    return time.perf_counter() - t0, rc, buf.getvalue()


def check(workload, rc, output: str, csv_path: Path, expected: dict):
    """Check one call's outputs; return (accuracy dict or None, problem or None)."""
    try:
        if rc != 0:
            raise ValueError(f"exit code {rc}")
        if not csv_path.is_file():
            raise ValueError("no CSV written")
        rows = read_csv(csv_path, workload.header)
        if len(rows) != expected["csv_rows"]:
            raise ValueError(f"{len(rows)} CSV rows, expected {expected['csv_rows']}")
        return accuracy(workload, rows), None
    except ValueError as exc:
        return None, f"{exc}\n{output}"
    finally:
        csv_path.unlink(missing_ok=True)


def call(workload, seed: int, trace: bool) -> dict:
    """Make one CLI call (traced or not) and check its outputs.

    Only the import precedes the call; the expected counts and the grid
    shape are worked out after it, so they cannot warm anything it uses.
    """
    import_rhlab()
    from rhlab import cli

    OUT_DIR.mkdir(exist_ok=True)
    csv_path = OUT_DIR / f"{workload.name}-{os.getpid()}.csv"
    argv = workload.argv(ROOT, seed, csv_path)
    tracer = Tracer() if trace else None
    if trace:
        tracer.install()
    try:
        wall, rc, output = one_call(cli, argv)
    finally:
        if trace:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from rhlab.harmonics import default_grid

    expected = counts(workload.settings(ROOT, seed))
    spec = default_grid(expected["L"])
    acc, problem = check(workload, rc, output, csv_path, expected)
    if problem is not None:
        print(f"{workload.name}: call failed: {problem}", file=sys.stderr)
    record = {
        "grid_shape": (spec.n_lat, spec.n_lon),
        "counts": expected,
        "wall_s": wall,
        "accuracy": acc,
        "problem": problem,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if trace:
        record["bindings"] = tracer.bindings
        record["summary"] = tracer.summary()
        spans = OUT_DIR / f"{workload.name}-seed{seed}-spans.csv"
        tracer.write_spans(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "call"))
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        record = {"setup_s": set_up(workload, args.seed)}
    else:
        record = call(workload, args.seed, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
