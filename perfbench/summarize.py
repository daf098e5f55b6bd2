"""Summarize run records: median, quartiles, spread, and the shift between sets.

    python3 perfbench/summarize.py [DIR ...] [--out perfbench/baseline.json]

Each DIR holds one set of the records that run.py writes (by default
.perfbench_out/).  Records are grouped by workload and trace mode.  For
each metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread: the distance between the quartiles as a share of
the median.  The spread is what a bound in BENCHMARK.json must exceed.
With two or more sets, it also prints how far each later set's median
of every end-to-end metric lies from the first set's, as a share of the
first, beside the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def stats(xs: list[float]) -> dict:
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "n": len(xs)}


def summarize(records: list[dict]) -> dict:
    groups = defaultdict(list)
    for rec in records:
        groups[(rec["workload"], rec["trace"])].append(rec)
    out = {}
    for (workload, trace), recs in sorted(groups.items()):
        names = {**recs[0]["metrics"], **recs[0]["report_metrics"]}
        out[f"{workload} --trace {trace}"] = {
            "seeds": sorted(r["seed"] for r in recs),
            "all_correct": all(r["correct"] for r in recs),
            "L": recs[0]["L"],
            "grid_shape": recs[0]["grid_shape"],
            "metrics": {name: stats([{**r["metrics"], **r["report_metrics"]}[name]
                                     for r in recs]) for name in names},
        }
    return out


def shifts(first: dict, later: dict, bounds: dict) -> dict:
    """(later median - first median) / |first median| per end-to-end metric."""
    out = {}
    for group in sorted(first.keys() & later.keys()):
        for name, bound in bounds.items():
            a = first[group]["metrics"].get(name)
            b = later[group]["metrics"].get(name)
            if a and b and a["median"]:
                shift = (b["median"] - a["median"]) / abs(a["median"])
                out.setdefault(group, {})[name] = {
                    "shift": shift, "bound": bound, "within_bound": abs(shift) <= bound}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dirs", nargs="*", type=Path, default=[OUT_DIR],
                    help="one directory of run records per set")
    ap.add_argument("--out", help="also write the summary, with the environment, as JSON")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sets, env = {}, None
    for d in args.dirs:
        records = [json.loads(p.read_text()) for p in sorted(d.glob("*-trace[01].json"))]
        if not records:
            print(f"no run records in {d}")
            return 1
        env = env or records[0]["env"]
        sets[d.name] = summarize(records)
    for set_name, summary in sets.items():
        for group, entry in summary.items():
            print(f"{set_name}: {group}: {len(entry['seeds'])} runs, "
                  f"all correct: {entry['all_correct']}")
            for name, s in entry["metrics"].items():
                spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
                print(f"  {name:48s} median {s['median']:<12.6g} "
                      f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread}")
    names = list(sets)
    median_shift = {later: by_group for later in names[1:]
                    if (by_group := shifts(sets[names[0]], sets[later], bounds))}
    for later, by_group in median_shift.items():
        for group, by_metric in by_group.items():
            print(f"{later} vs {names[0]}: {group}: " + ", ".join(
                f"{name} {m['shift']:+.3f} (bound {m['bound']})"
                for name, m in by_metric.items()))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "sets": sets, "median_shift": median_shift}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
