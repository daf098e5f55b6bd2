"""Self-checks of the benchmark: derived counts, traced counts, BENCHMARK.json.

    python3 -m pytest perfbench
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from run import END_TO_END_UNITS
from tracer import NAMES, PER_LAYER_UNITS, Tracer, self_check
from workloads import WORKLOADS, accuracy, counts, expected_calls, read_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Small variants of every workload: same subcommand and config, tiny L and t_end.
SMALL = {
    "rh-exactness-L21": ("L=8", "t_end=0.004", "diag_every=3"),
    "rh-exactness-L170": ("L=10", "t_end=0.002"),
    "rearrange-L90": ("L=8", "t_end=0.003", "diag_every=2"),
    "stability-so3-L12": ("L=6", "t_end=0.002", "epsilons=0.01,0.005"),
}


def test_counts_follow_the_config():
    c = counts(WORKLOADS["rh-exactness-L21"].settings(ROOT, 11))
    assert (c["L"], c["steps"], c["n_diag"], c["csv_rows"]) == (21, 500, 2, 2)
    c = counts(WORKLOADS["rearrange-L90"].settings(ROOT, 11))
    assert (c["L"], c["steps"], c["csv_rows"]) == (90, 50, 2)
    c = counts(WORKLOADS["stability-so3-L12"].settings(ROOT, 11))
    assert (c["n_eps"], c["steps"], c["csv_rows"]) == (3, 300, 6)


def traced_call(name, tmp_path, unbind=None):
    """One CLI call of a small workload variant under the tracer.

    unbind = (module, attribute) restores the original function at that
    one binding, as a tracer that missed it would leave it.
    """
    from rhlab import cli

    w = WORKLOADS[name]
    w = dataclasses.replace(w, overrides=w.overrides + SMALL[name])
    out = tmp_path / "out.csv"
    tracer = Tracer()
    tracer.install()
    if unbind is not None:
        module = sys.modules[f"rhlab.{unbind[0]}"]
        setattr(module, unbind[1], getattr(module, unbind[1]).__wrapped__)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(w.argv(ROOT, 11, out)) == 0
    finally:
        tracer.uninstall()
    c = counts(w.settings(ROOT, 11))
    assert len(read_csv(out, w.header)) == c["csv_rows"]
    return tracer.summary(), expected_calls(w.command, c)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_equal_the_config(name, tmp_path):
    summary, expected = traced_call(name, tmp_path)
    assert self_check([summary, summary], expected) == []
    assert all(summary[f"{n}.self_s"] >= 0.0 for n in NAMES)
    assert summary["harmonics.grid_tables.builds"] >= 1


def test_rotations_are_counted_inside_distances(tmp_path):
    summary, _ = traced_call("stability-so3-L12", tmp_path)
    assert summary["orbit_metrics.dist_so3_orbit.evals_per_call"] == (
        summary["rotations.rotate_so3.calls"] / summary["orbit_metrics.dist_so3_orbit.calls"])
    assert summary["harmonics.eval_point.points"] == (
        summary["rotations.rotate_so3.calls"] * 14 * 28)  # one point per node of the L=6 grid


@pytest.mark.parametrize("name, unbind, key", [
    ("stability-so3-L12", ("experiments", "dist_so3_orbit"), "orbit_metrics.dist_so3_orbit.calls"),
    ("rh-exactness-L21", ("dynamics", "advection_tendency"), "operators.advection_tendency.calls"),
])
def test_a_missed_binding_fails_the_self_check(name, unbind, key, tmp_path):
    summary, expected = traced_call(name, tmp_path, unbind)
    problems = self_check([summary], expected)
    assert any(p.startswith(key) for p in problems), problems


def test_counts_that_differ_between_calls_fail_the_self_check():
    a = {"cli.main.calls": 1}
    assert self_check([a, {"cli.main.calls": 2}], {}) != []


def test_orbit_accuracy_does_not_depend_on_the_configured_epsilons():
    w = WORKLOADS["stability-so3-L12"]
    rows = [[0.01, 0.0, 0.004], [0.01, 0.1, 0.005], [0.002, 0.1, 0.0016]]
    acc = accuracy(w, rows)
    assert acc["sup_dist_over_eps"] == pytest.approx(0.8)  # the eps=0.002 row
    scaled = accuracy(w, [[10 * e, t, 10 * d] for e, t, d in rows])
    assert scaled["accuracy_digits"] == pytest.approx(acc["accuracy_digits"])


def test_a_run_whose_calls_all_fail_still_prints_a_result(monkeypatch, capsys):
    failed_call = {"problem": "exit code 1", "traced": False}
    monkeypatch.setattr(run, "measure", lambda *args: (
        [failed_call, dict(failed_call)], [{"problem": None, "setup_s": 0.9}]))
    assert run.main(["--workload", "rh-exactness-L21", "--seconds", "1"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == {"correct": False, "attempted": 3, "failed": 2, "metrics": {}}


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rh-exactness-L21",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
