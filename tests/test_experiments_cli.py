import argparse
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhlab import __version__, cli, experiments
from rhlab.dynamics import SolverConfig, Stepper, evolve
from rhlab.experiments import (
    CONFIG_PARSERS,
    ExperimentConfig,
    ExperimentResult,
    config_from_mapping,
    default_rearrange_stream,
    exp_orbit_traversal,
    exp_rearrangement_bound,
    exp_rh_exactness,
    exp_stability,
    parse_config_file,
    parse_finite_float,
    random_bandlimited,
)
from rhlab.grid import MAX_L
from rhlab.harmonics import E2Coeffs, SpectralField, e2_to_spectral, norm_l2, save_spectral
from rhlab.orbit_metrics import dist_polar_orbit, dist_so3_orbit
from rhlab.rh_waves import exact_state, make_rh
from rhlab.rotations import rotate_polar
from tests.conftest import random_spectral


class TestRandomBandlimited:
    def test_unit_norm_zero_mean(self):
        f = random_bandlimited(12, seed=5)
        assert norm_l2(f) == pytest.approx(1.0, rel=1e-12)
        assert f.coeffs[0, 0] == 0.0

    def test_respects_degree_cap(self):
        f = random_bandlimited(12, seed=5, max_degree=4)
        assert np.abs(f.coeffs[:, 5:]).max() == 0.0
        assert np.abs(f.coeffs[:, 1:5]).max() > 0.0

    def test_seed_determinism(self):
        a = random_bandlimited(10, seed=42)
        b = random_bandlimited(10, seed=42)
        c = random_bandlimited(10, seed=43)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_max_degree_above_L_is_rejected_not_clamped(self):
        with pytest.raises(ValueError) as err:
            random_bandlimited(6, 0, 7)
        assert str(err.value) == "max_degree must be <= L = 6, got 7"


class TestConfigParsing:
    def test_file_with_comments(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text(
            "# experiment setup\n"
            "L = 10   # truncation\n"
            "omega=0.5\n"
            "\n"
            "Y = 0.5,0.3,0.1,0.2,0.1\n"
            "epsilons = 1e-2,5e-3\n"
            "name=demo\n"
        )
        cfg = config_from_mapping(parse_config_file(p))
        assert cfg.L == 10
        assert cfg.omega == 0.5
        assert cfg.Y == E2Coeffs(0.5, 0.3, 0.1, 0.2, 0.1)
        assert cfg.epsilons == (1e-2, 5e-3)
        assert cfg.name == "demo"

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("just words\n")
        with pytest.raises(ValueError, match="bad config line"):
            parse_config_file(p)

    def test_repeated_key_rejected_naming_both_lines(self, tmp_path):
        p = tmp_path / "twice.cfg"
        p.write_text("L=21\n# comment\nomega=0.5\nL = 90  # again\n")
        with pytest.raises(ValueError) as err:
            parse_config_file(p)
        assert str(err.value) == ("bad config line: L = 90  # again (line 4) sets 'L' again, "
                                  "after L=21 (line 1)")

    def test_overrides_replace_file_keys_and_earlier_overrides(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("L=8\nt_end=0.1\n")
        args = argparse.Namespace(command="rh-verify", config=str(p),
                                  overrides=["L=9", "t_end=0.2", "L=10"])
        cfg = cli._build_config(args)
        assert (cfg.L, cfg.t_end) == (10, 0.2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_mapping({"frequency": "3"})

    def test_y_needs_five_components(self):
        with pytest.raises(ValueError, match="five"):
            config_from_mapping({"Y": "1,2,3"})

    def test_group_is_not_a_config_key(self):
        # the stability group follows from alpha
        with pytest.raises(ValueError) as err:
            config_from_mapping({"group": "so3", "L": "8"})
        assert str(err.value) == "unknown config key 'group'"

    @pytest.mark.parametrize("out", ["/nonexistent/x.csv", "", "."])
    def test_output_path_must_be_a_file_in_an_existing_directory(self, out):
        # rejected here, not by the CSV writer after every step has run
        with pytest.raises(ValueError) as err:
            ExperimentConfig(output_path=out)
        assert str(err.value) == f"output_path {out!r} is not a file in an existing directory"

    def test_epsilons_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            ExperimentConfig(epsilons=(1e-3, 1e-2))

    @pytest.mark.parametrize("epsilons, message", [
        # an empty sweep would pass exp_stability with no rows
        ((), "nonempty, finite, positive and decreasing"),
        ((math.nan,), "nonempty, finite, positive and decreasing"),
        ((1e-2, math.nan), "finite, positive and decreasing"),
        ((math.inf, 1e-2), "finite, positive and decreasing"),
    ])
    def test_epsilons_must_be_finite_and_nonempty(self, epsilons, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(epsilons=epsilons)

    @pytest.mark.parametrize("config", [ExperimentConfig, partial(SolverConfig, L=8, omega=0.0)],
                             ids=["ExperimentConfig", "SolverConfig"])
    @pytest.mark.parametrize("times, message", [
        ({"dt": 0.0}, "dt must be positive, got 0"),
        ({"dt": math.nan}, "dt must be positive, got nan"),
        ({"dt": math.inf}, "dt and t_end must be finite, got dt=inf, t_end=1"),
        ({"t_end": -1.0}, "t_end must be nonnegative, got -1"),
        ({"t_end": math.nan}, "t_end must be nonnegative, got nan"),
        ({"t_end": math.inf}, "dt and t_end must be finite, got dt=0.01, t_end=inf"),
    ])
    def test_time_step_and_end_time_must_be_finite(self, config, times, message):
        # evolve would otherwise fail converting NaN or inf to a step count
        with pytest.raises(ValueError, match=re.escape(message)):
            config(**{"dt": 1e-2, "t_end": 1.0, **times})

    @pytest.mark.parametrize("key, value, bad", [
        ("L", "abc", "abc"),
        ("seed", "1.5", "1.5"),
        ("omega", "nan", "nan"),
        ("alpha", "inf", "inf"),
        ("t_end", "inf", "inf"),
        ("dt", "-inf", "-inf"),
        ("delta", "", ""),
        ("epsilons", "0.01,x", "x"),
        ("Y", "1,2,3,4,nan", "nan"),
    ])
    def test_bad_value_names_its_key_and_value(self, key, value, bad):
        with pytest.raises(ValueError) as err:
            config_from_mapping({key: value})
        assert repr(key) in str(err.value) and repr(bad) in str(err.value)

    def test_every_field_has_a_parser_that_reads_its_default(self):
        defaults = ExperimentConfig(output_path="out.csv")
        assert list(CONFIG_PARSERS) == [f.name for f in fields(ExperimentConfig)]
        for key, parse in CONFIG_PARSERS.items():
            value = getattr(defaults, key)
            parts = value.as_tuple() if key == "Y" else value
            text = ",".join(map(repr, parts)) if isinstance(parts, tuple) else str(value)
            assert parse(text) == value, key


CONFIG_KEYS = sorted(CONFIG_PARSERS)
FLOAT_KEYS = [key for key, parse in CONFIG_PARSERS.items() if parse is parse_finite_float]
# any text UTF-8 can encode (lone surrogates cannot be written to a file)
CONFIG_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=200)


class TestConfigFuzz:
    @given(text=CONFIG_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_parse_config_file_returns_stripped_pairs_or_rejects_the_line(
            self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("cfg") / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            out = parse_config_file(path)
        except ValueError as err:
            assert "bad config line" in str(err)
            return
        for key, value in out.items():
            assert key == key.strip() and value == value.strip()
            assert "#" not in key + value and "\n" not in key + value

    @given(mapping=st.dictionaries(st.sampled_from(CONFIG_KEYS + ["junk"]),
                                   st.one_of(CONFIG_TEXT, st.floats().map(repr),
                                             st.integers().map(str)), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_config_from_mapping_builds_a_finite_config_or_raises_value_error(self, mapping):
        try:
            cfg = config_from_mapping(mapping)
        except ValueError:
            return
        floats = [getattr(cfg, k) for k in FLOAT_KEYS]
        floats += list(cfg.epsilons) + list(cfg.Y.as_tuple())
        assert all(math.isfinite(v) for v in floats)

    @given(values=st.fixed_dictionaries({
        "L": st.integers(2, MAX_L), "seed": st.integers(0, 2**63), "omega": st.floats(-1e3, 1e3),
        "dt": st.floats(1e-6, 1.0), "t_end": st.floats(0.0, 1e3),
        "Y": st.lists(st.floats(-10, 10), min_size=5, max_size=5),
        "epsilons": st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4, unique=True)}))
    @settings(max_examples=100, deadline=None)
    def test_written_config_round_trips(self, values, tmp_path_factory):
        values["epsilons"] = sorted(values["epsilons"], reverse=True)
        lines = [f"{k} = {','.join(map(repr, v)) if isinstance(v, list) else repr(v)}  # comment"
                 for k, v in values.items()]
        path = tmp_path_factory.mktemp("cfg") / "round.cfg"
        path.write_text("\n".join(["# header"] + lines) + "\n")
        cfg = config_from_mapping(parse_config_file(path))
        assert (cfg.L, cfg.seed, cfg.omega, cfg.dt, cfg.t_end) == tuple(
            values[k] for k in ("L", "seed", "omega", "dt", "t_end"))
        assert cfg.Y.as_tuple() == tuple(values["Y"])
        assert cfg.epsilons == tuple(values["epsilons"])


SMALL_Y = E2Coeffs(0.1, 0.06, 0.02, 0.04, 0.02)


class TestExperimentsSmall:
    def test_rh_exactness(self):
        cfg = ExperimentConfig(name="rh", L=10, omega=0.3, alpha=0.7,
                               Y=E2Coeffs(0.5, 0.3, 0.1, 0.2, 0.1),
                               dt=1e-3, t_end=0.3, diag_every=100)
        res = exp_rh_exactness(cfg)
        assert res.ok
        assert res.header == ("t", "rel_l2_error")
        assert res.rows[0][0] == 0.0 and res.rows[-1][0] == pytest.approx(0.3)

    def test_checked_builds_do_not_grow_with_the_rows(self, monkeypatch):
        # the states and error rows are rhlab's own results, built unchecked
        builds = []
        check = SpectralField.__post_init__
        monkeypatch.setattr(SpectralField, "__post_init__",
                            lambda f: builds.append(f.L) or check(f))
        counts = []
        for t_end in (0.02, 0.1):
            cfg = ExperimentConfig(L=8, omega=0.3, alpha=0.7, Y=SMALL_Y,
                                   dt=1e-3, t_end=t_end, diag_every=10)
            before = len(builds)
            counts.append((len(exp_rh_exactness(cfg).rows), len(builds) - before))
        assert [rows for rows, _ in counts] == [3, 11]
        assert counts[0][1] == counts[1][1]

    def test_stability_polar(self):
        cfg = ExperimentConfig(name="stab", L=10, omega=0.2, alpha=0.2,
                               Y=SMALL_Y, epsilons=(1e-2, 5e-3),
                               dt=1e-3, t_end=0.2, diag_every=100, seed=3)
        res = exp_stability(cfg)
        assert res.ok, res.messages
        # distances stay on the order of the perturbation size
        for eps, t, d in res.rows:
            assert d < 3.0 * eps

    def test_stability_so3(self):
        cfg = ExperimentConfig(name="stab3", L=8, omega=0.2, alpha=0.0,
                               Y=SMALL_Y, epsilons=(1e-2, 5e-3),
                               dt=1e-3, t_end=0.2, diag_every=100, seed=3)
        res = exp_stability(cfg)
        assert res.ok, res.messages

    @pytest.mark.parametrize("alpha, measured, other", [
        (0.2, dist_polar_orbit, dist_so3_orbit),
        (0.0, dist_so3_orbit, dist_polar_orbit),
    ], ids=["polar", "so3"])
    def test_alpha_picks_the_orbit(self, alpha, measured, other):
        cfg = ExperimentConfig(L=8, omega=0.2, alpha=alpha, Y=SMALL_Y, epsilons=(1e-2, 5e-3),
                               dt=1e-2, t_end=0.2, diag_every=10, seed=3)
        rows = exp_stability(cfg).rows
        zeta0 = exact_state(make_rh(cfg.omega, alpha, e2_to_spectral(cfg.Y, cfg.L)), 0.0)
        eta = random_bandlimited(cfg.L, cfg.seed, cfg.max_degree)
        solver = SolverConfig(L=cfg.L, omega=cfg.omega, dt=cfg.dt, t_end=cfg.t_end,
                              diag_every=cfg.diag_every)
        states = [(eps, t, zeta) for eps in cfg.epsilons
                  for t, zeta in evolve(SpectralField(cfg.L, zeta0.coeffs + eps * eta.coeffs), solver)]
        assert len(rows) == len(states) == 6
        assert list(rows) == [(eps, t, measured(z, zeta0, cfg.p)[0]) for eps, t, z in states]
        assert list(rows) != [(eps, t, other(z, zeta0, cfg.p)[0]) for eps, t, z in states]

    def test_traversal(self):
        cfg = ExperimentConfig(name="trav", L=12, omega=0.0, alpha=1.0,
                               Y=E2Coeffs(0.5, 0.3, 0.1, 0.2, 0.1),
                               dt=1e-3, t_end=2.6, diag_every=25,
                               delta=0.05, beta_target=0.7)
        res = exp_orbit_traversal(cfg)
        assert res.ok, res.messages

    def test_failed_traversal_still_writes_its_csv(self, tmp_path):
        out = tmp_path / "trav.csv"
        cfg = ExperimentConfig(name="trav", L=8, omega=0.0, alpha=1.0,
                               Y=E2Coeffs(0.5, 0.3, 0.1, 0.2, 0.1),
                               dt=1e-2, t_end=0.2, diag_every=5,
                               delta=0.05, beta_target=0.7, output_path=str(out))
        res = exp_orbit_traversal(cfg)
        assert not res.ok
        assert any("never dipped" in m for m in res.messages)
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,distance_to_target"
        rows = [tuple(float(v) for v in l.split(",")) for l in lines[1:]]
        assert rows == list(res.rows) and len(rows) == 5

    def test_traversal_rejects_zero_speed(self):
        # alpha + delta = 3 omega makes the perturbed wave stationary
        cfg = ExperimentConfig(omega=0.35, alpha=1.0, delta=0.05)
        with pytest.raises(ValueError, match="speed"):
            exp_orbit_traversal(cfg)

    def test_rearrangement_bound(self):
        cfg = ExperimentConfig(name="rear", L=12, omega=0.0, alpha=1.0,
                               Y=E2Coeffs(0.5, 0.3, 0.1, 0.2, 0.1),
                               dt=1e-3, t_end=0.3, diag_every=100)
        res = exp_rearrangement_bound(cfg, moment_tol=1e-2)
        assert res.ok, res.messages
        # functional actually moved (the transport is not a symmetry)
        assert abs(res.rows[-1][1] - res.rows[0][1]) > 1e-6

    def test_default_rearrange_stream_is_unit_norm(self):
        chi = default_rearrange_stream(8)
        assert norm_l2(chi) == pytest.approx(1.0, rel=1e-12)

    def test_csv_output_comments(self, tmp_path):
        out = tmp_path / "rh.csv"
        cfg = ExperimentConfig(name="rh", L=8, omega=0.3, alpha=0.7,
                               Y=SMALL_Y, dt=1e-2, t_end=0.1, diag_every=5,
                               seed=9, output_path=str(out))
        exp_rh_exactness(cfg)
        text = out.read_text().splitlines()
        comments = [l for l in text if l.startswith("#")]
        assert any("rhlab" in l for l in comments)
        assert any("seed=9" in l for l in comments)
        header_line = next(l for l in text if not l.startswith("#"))
        assert header_line == "t,rel_l2_error"


def _csv_config(path):
    """The version line of a CSV's comments, its keys in order, and the config they read back to."""
    comments = [line[2:] for line in path.read_text().splitlines() if line.startswith("# ")]
    mapping = dict(line.split("=", 1) for line in comments[1:])
    return comments[0], list(mapping), config_from_mapping(mapping)


class TestCSVRecordsTheConfig:
    # every field away from its default, with floats that need all 17 digits
    CFG = ExperimentConfig(name="every-field", L=8, omega=0.1 + 0.2, alpha=2 / 3,
                           Y=E2Coeffs(0.1, 1 / 7, 0.02, -0.04, 1e-17), p=3.0,
                           epsilons=(1e-2, 1 / 300), seed=7, max_degree=4, dt=1 / 30,
                           t_end=0.1, diag_every=2, delta=1 / 30, beta_target=0.7)

    @pytest.mark.parametrize("run", [exp_rh_exactness, exp_stability, exp_orbit_traversal,
                                     exp_rearrangement_bound])
    def test_comment_lines_read_back_to_the_config(self, tmp_path, run):
        out = tmp_path / "run.csv"
        cfg = replace(self.CFG, output_path=str(out))
        res = run(cfg)
        version, keys, read = _csv_config(out)
        assert version == f"rhlab {__version__}"
        assert keys == [f.name for f in fields(ExperimentConfig) if f.name != "output_path"]
        assert read == replace(cfg, output_path=None)
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert lines[0] == ",".join(res.header) and len(lines) == len(res.rows) + 1


class TestCLI:
    def test_invariants_subcommand(self, capsys):
        rc = cli.main(["invariants", "--alpha", "0.5", "--y", "0.4,-0.3,0.2,0.6,-0.1"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == "a,u,v,w,p1,p0,I2,I3,I4,I5,I6,I7"
        assert len(out[1].split(",")) == 12

    @pytest.mark.parametrize("y, top", [("1e60,0,0,0,0", "inf,inf"), ("-1e60,0,0,0,0", "inf,-inf")])
    def test_invariants_too_large_for_a_float_print_inf(self, capsys, y, top):
        rc = cli.main(["invariants", f"--y={y}"])
        row = capsys.readouterr().out.splitlines()[1]
        assert rc == 0
        assert row.endswith("," + top)
        assert all(math.isfinite(float(v)) for v in row.split(",")[:-2])

    def test_classify_subcommand(self, capsys):
        rc = cli.main(["classify", "--y", "0.4,0.3,0.0,0.1,0.0",
                       "--yp", "0.4,0.3,0.0,0.1,0.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "same_h_orbit: True" in out
        assert "same_o3_orbit: True" in out

    def test_orbit_dist_polar(self, tmp_path, capsys):
        f = random_spectral(5, np.random.default_rng(2))
        save_spectral(f, tmp_path / "t.dat")
        save_spectral(rotate_polar(f, 0.9), tmp_path / "f.dat")
        rc = cli.main(["orbit-dist", "--f", str(tmp_path / "f.dat"),
                       "--target", str(tmp_path / "t.dat")])
        out = capsys.readouterr().out
        assert rc == 0
        d = float(out.splitlines()[0].split(":")[1])
        beta = float(out.splitlines()[1].split(":")[1])
        assert d < 1e-9
        assert beta == pytest.approx(0.9, abs=1e-7)

    def test_orbit_dist_so3(self, tmp_path, capsys):
        f = random_spectral(4, np.random.default_rng(6))
        save_spectral(f, tmp_path / "t.dat")
        save_spectral(f, tmp_path / "f.dat")
        rc = cli.main(["orbit-dist", "--f", str(tmp_path / "f.dat"),
                       "--target", str(tmp_path / "t.dat"), "--group", "so3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert float(out.splitlines()[0].split(":")[1]) < 1e-9

    @pytest.mark.parametrize("group", ["polar", "so3"])
    def test_orbit_dist_at_p2_needs_no_grid_even_at_L1(self, tmp_path, capsys, group):
        # Parseval: an L = 1 field has no grid, and needs none at p = 2
        f = random_spectral(1, np.random.default_rng(4))
        save_spectral(f, tmp_path / "t.dat")
        save_spectral(rotate_polar(f, 0.4), tmp_path / "f.dat")
        rc = cli.main(["orbit-dist", "--f", str(tmp_path / "f.dat"),
                       "--target", str(tmp_path / "t.dat"), "--group", group])
        assert rc == 0
        assert float(capsys.readouterr().out.splitlines()[0].split(":")[1]) < 1e-9

    def test_rh_verify_with_config_and_override(self, tmp_path, capsys):
        p = tmp_path / "rh.cfg"
        p.write_text("L=8\nomega=0.3\nalpha=0.7\nY=0.1,0.06,0.02,0.04,0.02\n"
                     "dt=1e-2\nt_end=0.1\ndiag_every=5\nname=filecfg\n")
        rc = cli.main(["rh-verify", "--config", str(p), "name=overridden"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overridden: PASS" in out

    def test_stability_cli_small(self, tmp_path, capsys):
        p = tmp_path / "s.cfg"
        p.write_text("L=8\nomega=0.2\nalpha=0.2\nY=0.1,0.06,0.02,0.04,0.02\n"
                     "epsilons=1e-2,5e-3\ndt=1e-3\nt_end=0.1\ndiag_every=100\n"
                     "name=s\n")
        rc = cli.main(["stability", "--config", str(p)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.strip().endswith("PASS")

    def test_calls_the_experiment_bound_in_experiments(self, monkeypatch, capsys):
        # a wrapper installed on the module after import, as the
        # benchmark's tracer installs one, is the function that runs
        calls = []

        def stub(cfg):
            calls.append(cfg)
            return ExperimentResult(name=cfg.name, ok=True, messages=("stub",), rows=(), header=())

        monkeypatch.setattr(experiments, "exp_rh_exactness", stub)
        rc = cli.main(["rh-verify", "L=8", "name=stubbed"])
        assert rc == 0 and [cfg.name for cfg in calls] == ["stubbed"]
        assert capsys.readouterr().out == "stubbed: stub\nstubbed: PASS\n"

    def test_bad_override_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["rh-verify", "not-an-override"])

    def test_failing_experiment_exits_nonzero(self, tmp_path, capsys):
        # the run ends long before the predicted close approach, so the
        # distance never dips below the threshold
        p = tmp_path / "trav.cfg"
        p.write_text("L=8\nomega=0.0\nalpha=1.0\nY=0.5,0.3,0.1,0.2,0.1\n"
                     "dt=1e-2\nt_end=0.2\ndiag_every=5\ndelta=0.05\n"
                     "beta_target=3.0\nname=short\n")
        rc = cli.main(["traversal", "--config", str(p)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "short: FAIL" in out
        assert "never dipped" in out


SHIPPED = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _python(*args):
    """Run `python args` in a fresh process with rhlab's source on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)


class TestConfigErrors:
    @pytest.mark.parametrize("config, override, message", [
        ("L=8\n", "L=abc", "config key 'L': 'abc' is not an integer"),
        ("L=8\njust words\n", "t_end=0.1", "bad config line: just words"),
        ("L=8\nL=9\n", "t_end=0.1", "bad config line: L=9 (line 2) sets 'L' again, "
                                     "after L=8 (line 1)"),
    ])
    def test_one_line_and_exit_code_two(self, tmp_path, config, override, message):
        p = tmp_path / "c.cfg"
        p.write_text(config)
        proc = _python("-m", "rhlab.cli", "rh-verify", "--config", str(p), override)
        assert proc.returncode == 2
        assert proc.stderr == f"rhlab rh-verify: {message}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("command, config, overrides, message", [
        ("rh-verify", "rh_exactness.cfg", ["dt=0"], "dt must be positive, got 0"),
        ("rh-verify", "rh_exactness.cfg", ["L=1"], "L must be >= 2, got 1"),
        ("rh-verify", "rh_exactness.cfg", ["L=171"], "L must be <= 170, got 171"),
        ("rh-verify", "rh_exactness.cfg", ["t_end=-1"], "t_end must be nonnegative, got -1"),
        ("rh-verify", "rh_exactness.cfg", ["diag_every=0"], "diag_every must be >= 1, got 0"),
        # the stability group follows from alpha
        ("stability", "stability_so3.cfg", ["group=so3"], "unknown config key 'group'"),
        # rejected before the evolution runs
        ("stability", "stability_polar.cfg", ["L=6", "t_end=0.002", "p=0.5"],
         "p must lie in (1, inf), got 0.5"),
        # otherwise a 0/0 perturbation field and numpy's seed error
        ("stability", "stability_so3.cfg", ["L=6", "t_end=0.002", "max_degree=0"],
         "max_degree must be >= 1, got 0"),
        ("stability", "stability_so3.cfg", ["L=6", "t_end=0.002", "seed=-1"],
         "seed must be nonnegative, got -1"),
        # otherwise the perturbation would be clamped to degree L
        ("stability", "stability_so3.cfg", ["L=6", "t_end=0.002", "max_degree=7"],
         "max_degree must be <= L = 6, got 7"),
        # a run that blows up, with no traceback and no numpy warning
        ("stability", "stability_so3.cfg", ["L=8", "t_end=0.002", "omega=1e308"],
         "non-finite tendency at step 1"),
        # rejected before the run, not by the CSV writer after it
        ("rh-verify", "rh_exactness.cfg", ["output_path=/nonexistent/dir/out.csv"],
         "output_path '/nonexistent/dir/out.csv' is not a file in an existing directory"),
        ("rh-verify", "rh_exactness.cfg", ["output_path="],
         "output_path '' is not a file in an existing directory"),
        ("rearrange", "rearrangement.cfg", [f"output_path={SHIPPED}"],
         f"output_path '{SHIPPED}' is not a file in an existing directory"),
        ("rearrange", "rearrangement.cfg", ["L=2"],
         "the rearrangement stream has degree 3, so it needs L >= 3, got L=2"),
    ])
    def test_out_of_range_value_is_one_line_and_exit_code_two(
            self, command, config, overrides, message):
        proc = _python("-m", "rhlab.cli", command, "--config", str(SHIPPED / config), *overrides)
        assert proc.returncode == 2
        assert proc.stderr == f"rhlab {command}: {message}\n"
        assert proc.stdout == ""

    def test_run_that_blows_up_writes_no_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        proc = _python("-m", "rhlab.cli", "stability", "--config", str(SHIPPED / "stability_so3.cfg"),
                       "L=8", "t_end=0.002", "omega=1e308", f"output_path={out}")
        assert proc.returncode == 2
        assert not out.exists()

    def test_rejected_config_leaves_its_output_file_as_it_was(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_text("kept\n")
        proc = _python("-m", "rhlab.cli", "rh-verify", "--config", str(SHIPPED / "rh_exactness.cfg"),
                       f"output_path={out}", "dt=0")
        assert proc.returncode == 2
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command, config, overrides, message", [
        # inputs that only an experiment rejects, before its first step
        ("rh-verify", "rh_exactness.cfg", ["Y=0,0,0,0,0"], "Y must be nonzero"),
        ("stability", "stability_polar.cfg", ["Y=0,0,0,0,0"], "Y must be nonzero"),
        ("traversal", "traversal.cfg", ["Y=0,0,0,0,0"], "Y must be nonzero"),
        ("rearrange", "rearrangement.cfg", ["Y=0,0,0,0,0"], "Y must be nonzero"),
        # alpha + delta = 3 omega = 0: the perturbed wave stands still
        ("traversal", "traversal.cfg", ["delta=-1.0"],
         "perturbed drift speed vanishes; no traversal occurs"),
        # the class maximum's alpha**2 overflows
        ("rearrange", "rearrangement.cfg", ["alpha=1e200"],
         "coefficients too large for float arithmetic: alpha = 1e+200"),
    ])
    def test_experiment_rule_is_one_line_exit_code_two_and_no_step(
            self, tmp_path, capsys, monkeypatch, command, config, overrides, message):
        argv = [command, "--config", str(SHIPPED / config), *overrides]
        out = tmp_path / "out.csv"
        proc = _python("-m", "rhlab.cli", *argv, f"output_path={out}")
        assert proc.returncode == 2
        assert proc.stderr == f"rhlab {command}: {message}\n"
        assert proc.stdout == ""
        assert not out.exists()
        # in-process, on an output file that is already there
        out.write_text("kept\n")
        steps = []
        step = Stepper.step
        monkeypatch.setattr(Stepper, "step",
                            lambda self, *a, **kw: steps.append(1) or step(self, *a, **kw))
        with pytest.raises(SystemExit) as exit_:
            cli.main([*argv, f"output_path={out}"])
        assert exit_.value.code == 2
        assert capsys.readouterr() == ("", f"rhlab {command}: {message}\n")
        assert steps == []
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command, args, y", [
        ("invariants", ["--y", "1e120,0,0,0,0"], "1e+120,0,0,0,0"),
        ("classify", ["--y", "1e120,0,0,0,0", "--yp", "1,0,0,0,0"], "1e+120,0,0,0,0"),
        ("classify", ["--y", "1,0,0,0,0", "--yp=-1e120,0,0,0,0"], "-1e+120,0,0,0,0"),
    ])
    def test_overflow_is_one_line_and_exit_code_two(self, command, args, y):
        # char_poly's a**3 overflows for |a| above about 1e103
        proc = _python("-m", "rhlab.cli", command, *args)
        assert proc.returncode == 2
        assert proc.stderr == f"rhlab {command}: coefficients too large for float arithmetic: Y = {y}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("command, config, override, owner", [
        ("rh-verify", "rh_exactness.cfg", "delta=0.3", "traversal"),
        ("rh-verify", "rh_exactness.cfg", "epsilons=0.5", "stability"),
        ("rh-verify", "rh_exactness.cfg", "max_degree=3", "stability"),
        ("rearrange", "rearrangement.cfg", "beta_target=1.0", "traversal"),
        ("traversal", "traversal.cfg", "epsilons=0.5", "stability"),
        ("stability", "stability_so3.cfg", "delta=0.3", "traversal"),
    ])
    def test_key_of_another_subcommand_is_one_line_and_exit_code_two(
            self, command, config, override, owner):
        # the shipped configs themselves run: TestShippedConfigs
        proc = _python("-m", "rhlab.cli", command, "--config", str(SHIPPED / config),
                       "t_end=0.01", override)
        key = override.split("=")[0]
        assert proc.returncode == 2
        assert proc.stderr == f"rhlab {command}: config key {key!r} is read only by rhlab {owner}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("f_name, extra, message", [
        ("f.dat", ["--p", "inf"], "p must lie in (1, inf), got inf"),
        ("f.dat", ["--p", "nan"], "p must lie in (1, inf), got nan"),
        ("f.dat", ["--p", "0.5"], "p must lie in (1, inf), got 0.5"),
        ("missing.dat", [], "[Errno 2] No such file or directory: '{dir}/missing.dat'"),
        ("bad.dat", [], "spectral file line 2 ('1 0 x 0'): fields are not "
                        "'int int float float'"),
        ("f5.dat", [], "--f has L = 5 but --target has L = 4"),
        # p != 2 integrates on a grid, which L = 1 cannot have; the later
        # --target replaces the first
        ("f1.dat", ["--target", "{dir}/t1.dat", "--p", "3"],
         "p = 3 integrates on a grid, which needs 2 <= L <= 170; the fields have L = 1"),
        ("f1.dat", ["--target", "{dir}/t1.dat", "--p", "3", "--group", "so3"],
         "p = 3 integrates on a grid, which needs 2 <= L <= 170; the fields have L = 1"),
        # an L above 170 is rejected from the header, before any allocation
        ("f171.dat", ["--target", "{dir}/f171.dat", "--p", "1.5"],
         "spectral file header L = 171 exceeds the largest supported L = 170"),
        ("huge.dat", [], "spectral file header L = 100000 exceeds the largest supported L = 170"),
    ])
    def test_orbit_dist_input_is_one_line_and_exit_code_two(
            self, tmp_path, f_name, extra, message):
        rng = np.random.default_rng(3)
        save_spectral(random_spectral(4, rng), tmp_path / "t.dat")
        save_spectral(random_spectral(4, rng), tmp_path / "f.dat")
        save_spectral(random_spectral(5, rng), tmp_path / "f5.dat")
        save_spectral(random_spectral(1, rng), tmp_path / "t1.dat")
        save_spectral(random_spectral(1, rng), tmp_path / "f1.dat")
        if f_name == "f171.dat":
            save_spectral(random_spectral(171, rng), tmp_path / f_name)
        (tmp_path / "bad.dat").write_text("L 4\n1 0 x 0\n")
        (tmp_path / "huge.dat").write_text("L 100000\n1 0 1.0 0.0\n")
        proc = _python("-m", "rhlab.cli", "orbit-dist", "--f", str(tmp_path / f_name),
                       "--target", str(tmp_path / "t.dat"),
                       *(arg.format(dir=tmp_path) for arg in extra))
        assert proc.returncode == 2
        assert proc.stderr == f"rhlab orbit-dist: {message.format(dir=tmp_path)}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("command, args, message", [
        ("invariants", ["--y", "0.5,0.3,0.1,0.2,nan"],
         "argument --y: 'nan' is not a finite number"),
        ("invariants", ["--y", "0.5,0.3,0.1,0.2,0.1", "--alpha", "inf"],
         "argument --alpha: 'inf' is not a finite number"),
        ("invariants", ["--y", "0.5,0.3,0.1,0.2,0.1", "--alpha=-inf"],
         "argument --alpha: '-inf' is not a finite number"),
        ("invariants", ["--y", "0.5,0.3,0.1,0.2,x"], "argument --y: 'x' is not a number"),
        ("classify", ["--y", "0.5,0.3,0.1,0.2,0.1", "--yp", "0.5,0.3,0.1,0.2,nan"],
         "argument --yp: 'nan' is not a finite number"),
        ("classify", ["--y", "inf,0.3,0.1,0.2,0.1", "--yp", "0.5,0.3,0.1,0.2,0.1"],
         "argument --y: 'inf' is not a finite number"),
    ])
    def test_non_finite_value_is_an_argument_error(self, command, args, message):
        proc = _python("-m", "rhlab.cli", command, *args)
        assert proc.returncode == 2
        assert proc.stderr.endswith(f"rhlab {command}: error: {message}\n")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("key, flag", [("alpha", "--alpha"), ("Y", "--y")])
    @pytest.mark.parametrize("text", ["nan", "inf", "x", "1,2,3,4"])
    def test_flag_and_config_key_reject_a_value_alike(self, capsys, key, flag, text):
        with pytest.raises(ValueError) as err:
            config_from_mapping({key: text})
        prefix = f"config key {key!r}: "
        assert str(err.value).startswith(prefix)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["invariants", "--y=1,0,0,0,0", f"{flag}={text}"])
        assert exit_.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.endswith(f"error: argument {flag}: {str(err.value)[len(prefix):]}\n")


class TestShippedConfigs:
    @pytest.mark.parametrize("command, config, header, n_eps", [
        ("rh-verify", "rh_exactness.cfg", "t,rel_l2_error", 1),
        ("stability", "stability_polar.cfg", "epsilon,t,orbit_distance", 3),
        ("stability", "stability_so3.cfg", "epsilon,t,orbit_distance", 3),
        ("traversal", "traversal.cfg", "t,distance_to_target", 1),
        ("rearrange", "rearrangement.cfg", "t,e_deg2,excess_over_max,moment_drift", 1),
    ])
    def test_short_run_writes_its_csv(self, tmp_path, capsys, command, config, header, n_eps):
        # 20 steps: the diagnostics cadence of every shipped config is
        # longer, so each epsilon gives the rows at t = 0 and t = 0.02;
        # pass or fail is not checked, since traversal cannot dip so early
        out = tmp_path / "out.csv"
        settings = parse_config_file(SHIPPED / config)
        rc = cli.main([command, "--config", str(SHIPPED / config),
                       "t_end=0.02", f"output_path={out}"])
        assert rc in (0, 1)
        assert capsys.readouterr().out.splitlines()[-1] in (
            f"{settings['name']}: PASS", f"{settings['name']}: FAIL")
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert lines[:len(comments)] == comments
        version, _, read = _csv_config(out)
        assert version == f"rhlab {__version__}"
        assert read == config_from_mapping({**settings, "t_end": "0.02"})
        assert lines[len(comments)] == header
        rows = [[float(v) for v in l.split(",")] for l in lines[len(comments) + 1:]]
        assert len(rows) == 2 * n_eps
        t = header.split(",").index("t")
        assert [r[t] for r in rows] == [0.0, 0.02] * n_eps


class TestImportCost:
    def test_import_builds_no_moment_polynomials(self):
        # the derivation of A..F runs on first use, not in the benchmark's setup
        out = _python("-c", "import rhlab.cli, rhlab.experiments, rhlab.invariants_algebra as m; "
                            "print(m._moment_polynomials.cache_info().currsize)")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0"

    def test_cli_import_leaves_scipy_optimize_out(self):
        # scipy.optimize takes ~0.5 s to import; only p != 2 distances need it
        out = _python("-c", "import sys, rhlab.cli; print('scipy.optimize' in sys.modules)")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"
