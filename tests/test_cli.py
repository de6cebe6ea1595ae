import csv
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import platoon_lab
from helpers import write_map_csv
from platoon_lab import cli
from platoon_lab.channel import GilbertParams, gamma_of
from platoon_lab.control import Gains, Scheme, min_headway
from platoon_lab.output import write_timeseries_csv
from platoon_lab.scenario import ScenarioError, load_scenario, parse_scenario_text, preset_text
from platoon_lab.sim import empirical_string_stability, simulate
from platoon_lab.stability import build_error_system, hinf_norm, peak_output_bound

BASE = """
[platoon]
n_followers = 3
tau = 0.4
k_a = 0.2
k_v = 2.5
k_p = 1.0
headway = 0.6
standstill = 5.0
scheme = cacc

[channel]
p_gb = 0.2
q_bg = 0.1
r_recv_bad = 0.2

[maneuver]
initial_velocity = 25.0
segments = 0:0, 5:-9, 6:0

[analysis]
dt = 0.01
horizon = 20.0

[output]
prefix = base
svg = false
"""

DIVERGENT = """
[platoon]
n_followers = 2
tau = 2.0
k_a = 0.0001
k_v = 0.01
k_p = 5.0
headway = 0.01

scheme = cacc

[maneuver]
initial_velocity = 25.0
segments = 0:0, 2:-9, 3:0

[analysis]
dt = 0.01
horizon = 150.0
deterministic_gamma = 0.0
"""


def read_timeseries_csv(path) -> dict[str, np.ndarray]:
    """Parse a timeseries CSV back into named column arrays."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    return {name: np.array([float(r[j]) for r in data]) for j, name in enumerate(header)}


def write(tmp_path, text, name="scen.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestScenarioParsing:
    def test_roundtrip_basic(self, tmp_path):
        scen = load_scenario(write(tmp_path, BASE))
        assert scen.config.n_followers == 3
        assert scen.config.gains.k_v == 2.5
        assert scen.maneuver.segments == ((0.0, 0.0), (5.0, -9.0), (6.0, 0.0))
        assert scen.output.prefix == "base"
        assert not scen.output.svg

    def test_unknown_key_rejected(self, tmp_path):
        bad = BASE.replace("standstill = 5.0", "standstil = 5.0")
        with pytest.raises(ScenarioError, match="unknown key"):
            load_scenario(write(tmp_path, bad))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown section"):
            load_scenario(write(tmp_path, BASE + "\n[extras]\nfoo = 1\n"))

    def test_missing_required_key(self, tmp_path):
        bad = BASE.replace("headway = 0.6", "")
        with pytest.raises(ScenarioError, match="headway"):
            load_scenario(write(tmp_path, bad))

    def test_cacc_plus_follower_constraint_named(self, tmp_path):
        bad = BASE.replace("n_followers = 3", "n_followers = 1").replace(
            "scheme = cacc", "scheme = cacc_plus")
        with pytest.raises(ScenarioError, match="two-predecessor"):
            load_scenario(write(tmp_path, bad))

    def test_gamma_auto(self, tmp_path):
        text = BASE.replace("horizon = 20.0", "horizon = 20.0\ndeterministic_gamma = auto")
        scen = load_scenario(write(tmp_path, text))
        assert scen.config.rates == pytest.approx((0.466667,) * 2, abs=1e-6)
        # the (i, i-2) links run at their own channel's rate mu = 1/6 in
        # `simulate` too, as in the analyses; they once ran at gamma
        plus = (text.replace("n_followers = 3", "n_followers = 4")
                .replace("scheme = cacc", "scheme = cacc_plus")
                .replace("r_recv_bad = 0.2", "r_recv_bad = 0.2\n"
                         "p_gb_2 = 0.5\nq_bg_2 = 0.1\nr_recv_bad_2 = 0"))
        path = write(tmp_path, plus, "plus.ini")
        scen = load_scenario(path)
        assert scen.config.rates[1] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert scen.analysis_rates == scen.config.rates
        rc = cli.main(["run", "simulate", "--scenario", path, "--out", str(tmp_path / "o")])
        assert rc == 0
        peaks = json.loads((tmp_path / "o" / "base-report.json").read_text())["verdicts"]["peaks"]
        expected = simulate(replace(scen.config, rates=(7.0 / 15.0, 1.0 / 6.0)), scen.maneuver)
        np.testing.assert_allclose(peaks, empirical_string_stability(expected)[1],
                                   rtol=1e-12)
        # an explicit mu still wins
        scen = load_scenario(write(tmp_path, plus.replace(
            "deterministic_gamma = auto", "deterministic_gamma = auto\nmu = 0.3"), "mu.ini"))
        assert scen.config.rates[1] == 0.3 and scen.analysis_rates[1] == 0.3

    def test_presets_all_load(self):
        for name in ("paper-fig4", "paper-fig8", "paper-fig9", "paper-fig10"):
            scen = load_scenario(name)
            assert scen.config.n_followers >= 6

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown preset"):
            load_scenario("paper-fig99")

    def test_config_hash_tracks_content(self, tmp_path):
        a = load_scenario(write(tmp_path, BASE, "a.ini"))
        b = load_scenario(write(tmp_path, BASE, "b.ini"))
        assert a.config_hash == b.config_hash
        changed = load_scenario(write(tmp_path, BASE.replace("headway = 0.6",
                                                             "headway = 0.61"), "c.ini"))
        assert changed.config_hash != a.config_hash

    def test_config_hash_tracks_map_files(self, tmp_path):
        from platoon_lab.maps import synthetic_brake_map, synthetic_throttle_map
        write_map_csv(synthetic_throttle_map(), tmp_path / "thr.csv")
        write_map_csv(synthetic_brake_map(), tmp_path / "brk.csv")
        text = BASE.replace("scheme = cacc", "scheme = cacc\nmodel = empirical\n"
                            f"throttle_map = {tmp_path / 'thr.csv'}\n"
                            f"brake_map = {tmp_path / 'brk.csv'}")
        a = load_scenario(write(tmp_path, text, "a.ini"))
        assert load_scenario(write(tmp_path, text, "b.ini")).config_hash == a.config_hash
        # same INI text, different throttle-map contents
        base = synthetic_throttle_map()
        write_map_csv(replace(base, accel=tuple(tuple(1.01 * a for a in row)
                                                for row in base.accel)), tmp_path / "thr.csv")
        changed = load_scenario(write(tmp_path, text, "c.ini"))
        assert changed.config.throttle_map != a.config.throttle_map
        assert changed.config_hash != a.config_hash
        write_map_csv(synthetic_throttle_map(), tmp_path / "thr.csv")
        assert load_scenario(write(tmp_path, text, "d.ini")).config_hash == a.config_hash


class TestCsvFidelity:
    def test_roundtrip_exact(self, tmp_path):
        scen = load_scenario("paper-fig8", master_seed=7)
        from platoon_lab.dynamics import TimeGrid
        cfg = replace(scen.config, grid=TimeGrid(0.01, 15.0))
        out = simulate(cfg, scen.maneuver)
        path = tmp_path / "ts.csv"
        write_timeseries_csv(out, path)
        cols = read_timeseries_csv(path)
        np.testing.assert_array_equal(cols["t"], out.time)
        for i in range(cfg.n_followers + 1):
            np.testing.assert_array_equal(cols[f"x{i}"], out.x[i])
            np.testing.assert_array_equal(cols[f"v{i}"], out.v[i])
            np.testing.assert_array_equal(cols[f"a{i}"], out.a[i])
            if i >= 1:
                np.testing.assert_array_equal(cols[f"e{i}"], out.errors[i - 1])


class TestCliExitCodes:
    def test_success_and_artifacts(self, tmp_path):
        path = write(tmp_path, BASE)
        rc = cli.main(["run", "simulate", "--scenario", path,
                       "--out", str(tmp_path / "out"), "--seed", "3"])
        assert rc == 0
        assert (tmp_path / "out" / "base-run-timeseries.csv").exists()
        assert (tmp_path / "out" / "base-report.json").exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, BASE + "\n[platoon]\nbogus = 1\n")
        rc = cli.main(["run", "simulate", "--scenario", path, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_file_exit_2(self, tmp_path):
        rc = cli.main(["run", "simulate", "--scenario", str(tmp_path / "nope.ini"),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    def assert_one_config_error(self, capsys, argv, *words):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        for word in words:
            assert word in err
        return err

    # each of the next three once ended in a traceback (exit 1)
    def test_scenario_directory_exit_2(self, tmp_path, capsys):
        (tmp_path / "scen.ini").mkdir()
        self.assert_one_config_error(capsys, ["run", "headway", "--scenario",
                                              str(tmp_path / "scen.ini"), "--out",
                                              str(tmp_path / "o")], "cannot read scenario")

    def test_scenario_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "scen.ini"
        path.write_bytes(BASE.replace("prefix = base", "prefix = b\xe4se").encode("latin-1"))
        self.assert_one_config_error(capsys, ["run", "headway", "--scenario", str(path),
                                              "--out", str(tmp_path / "o")],
                                     "cannot read scenario", "utf-8")

    def test_out_naming_a_file_exit_2(self, tmp_path, capsys):
        (tmp_path / "o").write_text("not a directory")
        self.assert_one_config_error(capsys, ["run", "headway", "--scenario",
                                              write(tmp_path, BASE), "--out",
                                              str(tmp_path / "o")], "output directory")

    @pytest.mark.parametrize("prefix", ["sub/run", "../escaped"])
    def test_prefix_with_a_path_separator_exit_2(self, tmp_path, capsys, prefix):
        # once a FileNotFoundError traceback (sub/run), or a report written
        # beside --out with exit 0 (../escaped)
        text = BASE.replace("prefix = base", f"prefix = {prefix}")
        (tmp_path / "scen").mkdir()
        scenario = write(tmp_path / "scen", text)
        self.assert_one_config_error(capsys, ["run", "headway", "--scenario", scenario,
                                              "--out", str(tmp_path / "o")], "[output] prefix")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["scen", "scen.ini"]

    @pytest.mark.parametrize("setting, key", [
        ("mu = 1.5", "mu"),
        ("deterministic_gamma = 0.4\nmu = 1.5", "mu"),
        ("mu = nan", "mu"),
        ("deterministic_gamma = 1.5", "deterministic_gamma"),
    ], ids=["mu", "mu_with_gamma", "mu_nan", "gamma"])
    @pytest.mark.parametrize("command", ["headway", "simulate"])
    def test_rate_out_of_range_exit_2(self, tmp_path, capsys, setting, key, command):
        text = BASE.replace("[analysis]", "[analysis]\n" + setting)
        err = self.assert_one_config_error(capsys, ["run", command, "--scenario",
                                                    write(tmp_path, text), "--out",
                                                    str(tmp_path / "o")])
        assert re.search(rf"\b{key}\b.* must lie in \[0, 1\]", err)

    @pytest.mark.parametrize("command", ["headway", "simulate", "stability",
                                         "montecarlo", "oracle"])
    @pytest.mark.parametrize("link", ["first", "second"])
    def test_channel_without_transitions_exit_2(self, tmp_path, capsys, command, link):
        # p_gb + q_bg = 0: the Gilbert chain never moves and has no reception rate
        text = BASE.replace("scheme = cacc", "scheme = cacc_plus")
        if link == "first":
            text = text.replace("p_gb = 0.2\nq_bg = 0.1", "p_gb = 0.0\nq_bg = 0.0")
            key = "p_gb +"
        else:
            text = text.replace("r_recv_bad = 0.2", "r_recv_bad = 0.2\n"
                                "p_gb_2 = 0\nq_bg_2 = 0\nr_recv_bad_2 = 0.5")
            key = "p_gb_2 +"
        rc = cli.main(["run", command, "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("setting, command", [
        ("horizon = 0", "simulate"),
        ("horizon = -1", "simulate"),
        ("horizon = inf", "simulate"),
        ("dt = inf", "simulate"),
        ("w0_l2 = -1", "stability"),
        ("w0_l2 = nan", "stability"),
        ("w0_l2 = inf", "stability"),
        ("alpha_star = -0.5", "stability"),
        ("alpha_star = inf", "stability"),
        ("n_realizations = 0", "montecarlo"),
        ("stochastic_seeds = -1", "simulate"),
    ])
    def test_bad_analysis_value_exit_2(self, tmp_path, capsys, setting, command):
        # each value once loaded and then crashed in the command, or went
        # through: stochastic_seeds < 0 was ignored, w0_l2 = nan gave NaN
        # bounds, and an infinite w0_l2 or alpha_star a report with
        # "peak_error_bound": Infinity, which is not JSON
        key = setting.split()[0]
        lines = [line for line in BASE.splitlines() if not line.startswith(key + " =")]
        text = "\n".join(lines).replace("[analysis]", "[analysis]\n" + setting)
        self.assert_one_config_error(capsys, ["run", command, "--scenario", write(tmp_path, text),
                                              "--out", str(tmp_path / "o")], key)
        assert not list((tmp_path / "o").glob("*.json"))

    @pytest.mark.parametrize("old, new, command, key", [
        ("k_v = 2.5", "k_v = nan", "stability", "k_v"),
        ("headway = 0.6", "headway = nan", "headway", "headway"),
        ("tau = 0.4", "tau = nan", "simulate", "tau"),
        ("segments = 0:0, 5:-9, 6:0", "segments = 0:0, nan:-9, 6:0", "simulate", "segment"),
        ("[output]", "[suite]\npanels = ideal:0.6, lossy:nan\n\n[output]", "simulate",
         "panel headway"),
    ], ids=["k_v", "headway", "tau", "segment_start", "panel_headway"])
    def test_nan_value_exit_2(self, tmp_path, capsys, old, new, command, key):
        # checks written as comparisons (k_v <= 0) are False for NaN, so each
        # value once went through: a LinAlgError traceback, "headway nan s is
        # insufficient", a reported divergence, a segment that never fires
        text = BASE.replace(old, new)
        assert text != BASE
        rc = cli.main(["run", command, "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["headway", "simulate", "stability",
                                         "montecarlo", "oracle"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, command):
        # simulate and montecarlo once died in SeedSequence with a traceback
        # (exit 1) while the other commands took the seed and ran
        rc = cli.main(["run", command, "--scenario", write(tmp_path, BASE),
                       "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert rc == 2
        assert "master_seed" in capsys.readouterr().err

    def test_channel_probability_out_of_range_exit_2(self, tmp_path):
        text = BASE.replace("p_gb = 0.2", "p_gb = 1.5")
        rc = cli.main(["run", "headway", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_non_monotone_map_exit_2(self, tmp_path, capsys):
        (tmp_path / "thr.csv").write_text("pedal,0,35\n0,0,0\n0.5,1,1\n1,0.5,0.5\n")
        text = BASE.replace("scheme = cacc", "scheme = cacc\nmodel = empirical\n"
                            f"throttle_map = {tmp_path / 'thr.csv'}")
        rc = cli.main(["run", "simulate", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "monotone" in capsys.readouterr().err

    @pytest.mark.parametrize("csv_text", [
        "pedal,0,nan,35\n0,0,0,0\n1,1,1,1\n",
        "pedal,0,35\n0,0,0\n0.5,1,1\n1,2,inf\n",
    ], ids=["nan_velocity", "inf_cell"])
    def test_non_finite_map_exit_2(self, tmp_path, capsys, csv_text):
        # NaN passes the strictly-ascending check (every comparison is False)
        # and inf passes the monotone one; both once ended in a traceback
        (tmp_path / "thr.csv").write_text(csv_text)
        text = BASE.replace("scheme = cacc", "scheme = cacc\nmodel = empirical\n"
                            f"throttle_map = {tmp_path / 'thr.csv'}")
        rc = cli.main(["run", "simulate", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_divergence_exit_3(self, tmp_path):
        path = write(tmp_path, DIVERGENT)
        rc = cli.main(["run", "simulate", "--scenario", path, "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("edit, message", [
        (("initial_velocity = 25.0", "initial_velocity = 1e6"),
         "state magnitude 1.790e+06 exceeded 1e+06 at step 0"),
        (("k_p = 1.0", "k_p = 1e306"), "state became non-finite at step 879"),
    ], ids=["far_start", "overflowed_law"])
    def test_map_model_divergence_exit_3(self, tmp_path, capsys, edit, message):
        # the overflowed law once ended in a ValueError traceback (exit 1)
        text = BASE.replace("scheme = cacc", "scheme = cacc\nmodel = empirical").replace(*edit)
        rc = cli.main(["run", "simulate", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == f"simulation diverged: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    @pytest.mark.parametrize("preset", ["paper-fig4", "paper-fig8", "paper-fig9",
                                        "paper-fig10"])
    def test_overflowed_state_exit_3_without_warnings(self, tmp_path, capsys, preset,
                                                      command):
        # the law's coefficients are finite but the state overflows; numpy's
        # overflow and invalid-value warnings once came before the one line
        text = re.sub(r"(?m)^k_p = .*$", "k_p = 1e306", preset_text(preset))
        rc = cli.main(["run", command, "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("simulation diverged: state became non-finite at step ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("preset", ["paper-fig4", "paper-fig8", "paper-fig9",
                                        "paper-fig10"])
    def test_overflowing_norm_exit_4_without_warnings(self, tmp_path, capsys, preset):
        # the denominator is Hurwitz by Routh (a1 a2 > a0 a3), but np.roots
        # once put a root at 0 and read it "not Hurwitz"; |H(j omega)|^2 then
        # overflows, and the norm is refused in one line
        text = re.sub(r"(?m)^k_p = .*$", "k_p = 1e306", preset_text(preset))
        rc = cli.main(["run", "stability", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 4
        err = capsys.readouterr().err
        assert re.fullmatch(r"analysis error: \|H\(j omega\)\|\^2 of \(.*\) / \(.*\) "
                            r"overflows the float range\n", err), err

    @pytest.mark.parametrize("command", ["headway", "simulate", "montecarlo",
                                         "stability", "oracle"])
    @pytest.mark.parametrize("preset", ["paper-fig4", "paper-fig8", "paper-fig9",
                                        "paper-fig10"])
    def test_overflowing_gain_exit_2(self, tmp_path, capsys, preset, command):
        # k_p / tau = inf: stability once ended in a LinAlgError traceback,
        # simulate and montecarlo in RuntimeWarnings, and oracle wrote NaN
        text = re.sub(r"(?m)^k_p = .*$", "k_p = 1.7e308", preset_text(preset))
        rc = cli.main(["run", command, "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: the gains overflow the control law")

    def test_panel_headway_overflowing_the_law_exit_2(self, tmp_path, capsys):
        # the law is finite at the configured headway but not at a panel's
        text = (preset_text("paper-fig8").replace("\nk_p = 1.0", "\nk_p = 5e306")
                .replace("lossy:0.6", "lossy:10"))
        rc = cli.main(["run", "simulate", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "overflow the control law" in capsys.readouterr().err

    def test_oracle_overflowing_powers_exit_4(self, tmp_path, capsys):
        # (E[A])^5 overflows the float range: the gap read inf <= 1e-12 * inf,
        # so "holds True (gap inf)" and exit 0
        text = preset_text("paper-fig9").replace("\nk_p = 2.0", "\nk_p = 1e60")
        rc = cli.main(["run", "oracle", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 4
        assert capsys.readouterr().err.startswith("analysis error: k = 5: E[A^k]")

    def test_montecarlo_divergence_exit_3(self, tmp_path):
        text = DIVERGENT.replace("deterministic_gamma = 0.0", "n_realizations = 3") + (
            "\n[channel]\np_gb = 0.2\nq_bg = 0.1\nr_recv_bad = 0.2\n")
        rc = cli.main(["run", "montecarlo", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("setting", ["deterministic_gamma = auto",
                                         "deterministic_gamma = 0.4"])
    def test_montecarlo_on_fixed_rates_exit_2(self, tmp_path, capsys, setting):
        # the ensemble was R copies of the fixed-rate run, compared with
        # itself as the gamma system (relative gap 1.9e-15 on fig4)
        text = BASE.replace("[analysis]", "[analysis]\n" + setting)
        self.assert_one_config_error(capsys, ["run", "montecarlo", "--scenario",
                                              write(tmp_path, text), "--out",
                                              str(tmp_path / "o")], "deterministic_gamma")
        assert not (tmp_path / "o" / "base-montecarlo-report.json").exists()

    def test_suite_with_fixed_rates_exit_2_before_simulating(self, tmp_path, capsys,
                                                             monkeypatch):
        # each panel runs at its own rates and the seeds sample the channels,
        # so the key was read by nothing: fig8 with deterministic_gamma = 0.9
        # exited 0, its lossy panels at gamma 0.4667
        text = preset_text("paper-fig8").replace("[analysis]",
                                                 "[analysis]\ndeterministic_gamma = 0.9")
        path = write(tmp_path, text)

        def no_run(*args, **kwargs):
            raise AssertionError("simulated before rejecting the scenario")

        for name in ("simulate", "simulate_panels", "monte_carlo"):
            monkeypatch.setattr(cli, name, no_run)
        self.assert_one_config_error(capsys, ["run", "simulate", "--scenario", path, "--out",
                                              str(tmp_path / "o")], "deterministic_gamma")
        assert list((tmp_path / "o").iterdir()) == []
        # the analyses still read the key
        for command in ("headway", "stability"):
            assert cli.main(["run", command, "--scenario", path,
                             "--out", str(tmp_path / "o")]) == 0
        headway = json.loads((tmp_path / "o" / "fig8-headway-report.json").read_text())
        assert headway["verdicts"]["gamma"] == 0.9

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_u_clamp_on_point_mass_exit_2(self, tmp_path, capsys, command):
        text = BASE.replace("scheme = cacc", "scheme = cacc\nu_clamp_min = -2\nu_clamp_max = 1")
        rc = cli.main(["run", command, "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "empirical" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["headway", "simulate"])
    @pytest.mark.parametrize("key", ["throttle_map", "brake_map"])
    def test_pedal_map_on_point_mass_exit_2(self, tmp_path, capsys, command, key):
        text = BASE.replace("scheme = cacc", f"scheme = cacc\n{key} = {tmp_path / 'none.csv'}")
        rc = cli.main(["run", command, "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "empirical" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["headway", "simulate"])
    def test_default_section_exit_2(self, tmp_path, capsys, command):
        rc = cli.main(["run", command, "--scenario", write(tmp_path, "[DEFAULT]\nfoo = 1\n" + BASE),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "[DEFAULT]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_u_clamp_min_above_max_exit_2(self, tmp_path, capsys, command):
        text = BASE.replace("scheme = cacc", "scheme = cacc\nmodel = empirical\n"
                            "u_clamp_min = 2\nu_clamp_max = -2")
        rc = cli.main(["run", command, "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err

    def test_oracle_21_links_exit_0(self, tmp_path):
        # CACC+ with 11 followers has 21 links; enumerating their 2^21
        # assignments was once refused, the per-vehicle recursion is not
        text = BASE.replace("scheme = cacc", "scheme = cacc_plus").replace(
            "n_followers = 3", "n_followers = 11")
        rc = cli.main(["run", "oracle", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        verdicts = json.loads((tmp_path / "o" / "base-oracle-report.json")
                              .read_text())["verdicts"]
        assert verdicts["n_variables"] == 21
        checks = {c["k"]: c["holds"] for c in verdicts["checks"]}
        assert checks[1] and checks[2]
        assert not checks[3]

    def test_fig4_oracle_verdicts(self, tmp_path):
        # 19 links; the 2^19-term enumeration once left rounding gaps of
        # 8e-11 and 1.75e-10 at k = 1, 2 and read k = 2 as a failure
        start = time.perf_counter()
        rc = cli.main(["run", "oracle", "--scenario", "paper-fig4",
                       "--out", str(tmp_path / "o")])
        elapsed = time.perf_counter() - start
        assert rc == 0
        with open(tmp_path / "o" / "fig4-oracle.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["holds"]) for r in rows] == [1, 1, 0, 0, 0, 0]
        assert all(float(r["frobenius_gap"]) < 1e-13 for r in rows[:2])
        assert elapsed < 2.0

    @pytest.mark.parametrize("suite", ["", "[suite]\npanels = ideal:0.6, lossy:0.6\n\n"])
    def test_one_follower_simulate_exit_2_before_simulating(self, tmp_path, capsys,
                                                            monkeypatch, suite):
        # one follower has no propagation to judge; the verdict once raised a
        # ValueError traceback after the whole run
        text = BASE.replace("n_followers = 3", "n_followers = 1").replace(
            "[output]", suite + "[output]")
        path = write(tmp_path, text)

        def no_run(*args, **kwargs):
            raise AssertionError("simulated before rejecting the scenario")

        for name in ("simulate", "simulate_panels", "monte_carlo"):
            monkeypatch.setattr(cli, name, no_run)
        rc = cli.main(["run", "simulate", "--scenario", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "n_followers >= 2" in capsys.readouterr().err
        for command in ("headway", "stability"):
            assert cli.main(["run", command, "--scenario", path,
                             "--out", str(tmp_path / "o")]) == 0

    def test_analysis_error_exit_4(self, tmp_path):
        path = write(tmp_path, DIVERGENT)
        rc = cli.main(["run", "stability", "--scenario", path, "--out", str(tmp_path / "o")])
        assert rc == 4

    def test_near_marginal_error_dynamics_exit_4_promptly(self, tmp_path, capsys):
        # this CACC loses stability at h = 0.4; at h = 0.401 the slowest error
        # mode decays at 4e-4 1/s, and sampling it once took 50 s
        text = (BASE.replace("tau = 0.4", "tau = 0.5").replace("k_a = 0.2", "k_a = 0.0")
                .replace("k_v = 2.5", "k_v = 0.1"))
        start = time.perf_counter()
        rc = cli.main(["run", "stability", "--out", str(tmp_path / "o"), "--scenario",
                       write(tmp_path, text.replace("headway = 0.6", "headway = 0.401"))])
        assert rc == 4
        assert time.perf_counter() - start < 2.0
        assert "sigma = 0.0004 1/s" in capsys.readouterr().err
        # at h = 0.45 (sigma = 2e-2 1/s) the constants are still sampled
        rc = cli.main(["run", "stability", "--out", str(tmp_path / "o"), "--scenario",
                       write(tmp_path, text.replace("headway = 0.6", "headway = 0.45"))])
        assert rc == 0
        verdicts = json.loads((tmp_path / "o" / "base-stability-report.json")
                              .read_text())["verdicts"]
        assert math.isfinite(verdicts["peak_error_bound"])
        assert math.isfinite(verdicts["l1_h"])


class TestCliCommands:
    def test_headway_reports_paper_number(self, tmp_path, capsys):
        text = BASE.replace("tau = 0.4", "tau = 0.37").replace("k_a = 0.2", "k_a = 0.8")
        rc = cli.main(["run", "headway", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "base-headway-report.json").read_text())
        assert report["verdicts"]["h_min_cacc"] == pytest.approx(0.538, abs=0.002)
        assert report["verdicts"]["h_min_acc"] == pytest.approx(0.74, abs=1e-12)

    def test_oracle_verdicts_by_scheme(self, tmp_path):
        rc = cli.main(["run", "oracle", "--scenario", write(tmp_path, BASE),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "base-oracle-report.json").read_text())
        assert report["verdicts"]["identity_holds_all"]
        plus = BASE.replace("scheme = cacc", "scheme = cacc_plus")
        rc = cli.main(["run", "oracle", "--scenario", write(tmp_path, plus, "p.ini"),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "base-oracle-report.json").read_text())
        checks = {c["k"]: c["holds"] for c in report["verdicts"]["checks"]}
        assert checks[1] and checks[2]
        assert not checks[3]

    @pytest.mark.parametrize("suite", [False, True])
    def test_every_report_records_its_seed(self, tmp_path, suite):
        # the config hash does not cover --seed, so each report says which
        # seed and which versions produced it
        text = BASE.replace("horizon = 20.0",
                            "horizon = 3.0\nn_realizations = 2\nstochastic_seeds = 2")
        if suite:
            text += "\n[suite]\npanels = ideal:0.6, lossy:0.6\n"
        path = write(tmp_path, text)
        reports = {"headway": "base-headway-report.json", "simulate": "base-report.json",
                   "montecarlo": "base-montecarlo-report.json",
                   "stability": "base-stability-report.json",
                   "oracle": "base-oracle-report.json"}
        for command, name in reports.items():
            rc = cli.main(["run", command, "--scenario", path, "--seed", "4242",
                           "--out", str(tmp_path / "o")])
            assert rc == 0, command
            report = json.loads((tmp_path / "o" / name).read_text())
            if command == "simulate":
                assert ("panels" in report["verdicts"]) == suite
            assert report["provenance"] == {
                "platoon_lab": platoon_lab.__version__, "numpy": np.__version__,
                "python": platform.python_version(), "seed": 4242}, command

    def test_fig9_suite_matches_paper_pattern(self, tmp_path):
        rc = cli.main(["run", "simulate", "--scenario", "paper-fig9",
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "fig9-report.json").read_text())
        assert report["verdicts"]["pattern"] == ["stable", "unstable", "stable"]

    def test_montecarlo_report(self, tmp_path):
        text = BASE.replace("horizon = 20.0", "horizon = 15.0\nn_realizations = 5")
        rc = cli.main(["run", "montecarlo", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o"), "--seed", "11"])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "base-montecarlo-report.json").read_text())
        assert report["verdicts"]["n_realizations"] == 5
        assert (tmp_path / "o" / "base-ensemble.csv").exists()

    def test_montecarlo_report_without_gamma_peak_is_valid_json(self, tmp_path, capsys):
        # a lead that never brakes leaves the gamma system's peaks at 0, so
        # the relative gap is undefined; it was written as Infinity
        text = BASE.replace("segments = 0:0, 5:-9, 6:0", "segments = 0:0").replace(
            "horizon = 20.0", "horizon = 2.0\nn_realizations = 2")
        rc = cli.main(["run", "montecarlo", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "relative gap n/a" in capsys.readouterr().out

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        raw = (tmp_path / "o" / "base-montecarlo-report.json").read_text()
        report = json.loads(raw, parse_constant=reject)
        assert report["verdicts"]["last_vehicle_gamma_system_peak"] == 0.0
        assert report["verdicts"]["relative_peak_gap"] is None

    def test_montecarlo_report_has_link_reception(self, tmp_path):
        text = BASE.replace("scheme = cacc", "scheme = cacc_plus").replace(
            "horizon = 20.0", "horizon = 5.0\nn_realizations = 3")
        rc = cli.main(["run", "montecarlo", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "base-montecarlo-report.json").read_text())
        links = report["verdicts"]["link_reception"]
        assert [entry["link"] for entry in links] == ["1<-0", "2<-1", "3<-2", "2<-0", "3<-1"]
        for entry in links:
            assert set(entry) == {"link", "reception_rate", "gamma_of"}
            assert 0.0 <= entry["reception_rate"] <= 1.0
            assert entry["gamma_of"] == pytest.approx(0.4667, abs=1e-4)

    def test_markup_in_the_scenario_name_gives_well_formed_svgs(self, tmp_path):
        # the name enters every SVG title; unescaped, "&" and "<" made
        # documents that XML parsers refuse
        text = BASE.replace("svg = false", "svg = true").replace(
            "horizon = 20.0", "horizon = 8.0\nn_realizations = 2")
        path = write(tmp_path, text, "a&b<c.ini")
        for command in ("simulate", "montecarlo"):
            assert cli.main(["run", command, "--scenario", path,
                             "--out", str(tmp_path / "o")]) == 0
        svgs = sorted((tmp_path / "o").glob("*.svg"))
        assert [p.name for p in svgs] == ["base-ensemble.svg", "base-run-errors.svg"]
        for svg in svgs:
            title = ElementTree.parse(svg).getroot().find("{http://www.w3.org/2000/svg}text")
            assert title.text.startswith("a&b<c")

    def test_byte_identical_reruns(self, tmp_path):
        path = write(tmp_path, BASE)
        for d in ("r1", "r2"):
            rc = cli.main(["run", "simulate", "--scenario", path,
                           "--out", str(tmp_path / d), "--seed", "42"])
            assert rc == 0
        a = (tmp_path / "r1" / "base-run-timeseries.csv").read_bytes()
        b = (tmp_path / "r2" / "base-run-timeseries.csv").read_bytes()
        assert a == b

    def test_stability_command_outputs_bound(self, tmp_path):
        rc = cli.main(["run", "stability", "--scenario", write(tmp_path, BASE),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "base-stability-report.json").read_text())
        assert report["verdicts"]["peak_error_bound"] > 0
        assert "j_value" in report["verdicts"]
        # each link's L-inf -> L-inf gain ||h||_1 sits next to its H-infinity
        # norm, which never exceeds it
        assert report["verdicts"]["hinf_h"] <= report["verdicts"]["l1_h"]
        plus = BASE.replace("scheme = cacc", "scheme = cacc_plus")
        rc = cli.main(["run", "stability", "--scenario", write(tmp_path, plus, "p.ini"),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        verdicts = json.loads((tmp_path / "o" / "base-stability-report.json")
                              .read_text())["verdicts"]
        assert verdicts["hinf_h_p1"] <= verdicts["l1_h_p1"]
        assert verdicts["hinf_h_p2"] <= verdicts["l1_h_p2"]
        assert verdicts["l1_sum"] == verdicts["l1_h_p1"] + verdicts["l1_h_p2"]

    def test_acc_peak_bound_takes_the_radio_free_chain(self, tmp_path):
        # ACC uses no radio, so its bound is the CACC chain's at gamma = 0,
        # whatever the channel; the gamma-weighted chain gave 16.881 m here
        text = (BASE.replace("scheme = cacc", "scheme = acc").replace("k_a = 0.2", "k_a = 0.5")
                .replace("headway = 0.6", "headway = 1.0"))
        rc = cli.main(["run", "stability", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        verdicts = json.loads((tmp_path / "o" / "base-stability-report.json")
                              .read_text())["verdicts"]
        assert verdicts["peak_error_bound"] == pytest.approx(14.598, abs=5e-4)
        radio_free = build_error_system(Gains(0.5, 2.5, 1.0), 0.4, 1.0, Scheme.CACC, 0.0, 0.0)
        expected = peak_output_bound(radio_free, 0.0).evaluate(9.0)
        assert verdicts["peak_error_bound"] == verdicts["safe_standstill_distance"] == expected

    def test_second_channel_rates_reach_headway_and_stability(self, tmp_path):
        # fig8 with its own (i, i-2) channel: gamma = 7/15, mu = 1/6.  Both
        # commands read the same (gamma, mu); stability once took mu = gamma
        # (hinf_h_p1 0.938, hinf_h_p2 0.440) and h_min_cacc_plus_mu had a
        # (1 + gamma) numerator (0.7936 s)
        text = preset_text("paper-fig8").replace(
            "r_recv_bad = 0.2", "r_recv_bad = 0.2\np_gb_2 = 0.5\nq_bg_2 = 0.1\nr_recv_bad_2 = 0.0")
        path = write(tmp_path, text)
        for command in ("headway", "stability"):
            rc = cli.main(["run", command, "--scenario", path, "--out", str(tmp_path / "o")])
            assert rc == 0
        headway, stab = (json.loads((tmp_path / "o" / f"fig8-{c}-report.json").read_text())
                         ["verdicts"] for c in ("headway", "stability"))
        assert headway == {key: stab[key] for key in headway}
        assert headway["mu"] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert headway["h_min_cacc_plus_mu"] == pytest.approx(0.6313, abs=5e-5)
        cfg = load_scenario(path).config
        ss = build_error_system(cfg.gains, cfg.tau, cfg.policy.h_w, Scheme.CACC_PLUS,
                                headway["gamma"], headway["mu"])
        assert [stab["hinf_h_p1"], stab["hinf_h_p2"]] == [hinf_norm(tf) for tf in ss.tfs]
        assert stab["hinf_h_p1"] == pytest.approx(1.1067, abs=5e-5)
        assert stab["hinf_h_p2"] == pytest.approx(0.1840, abs=5e-5)

    def test_no_headway_suffices_past_a1_of_one(self, tmp_path, capsys):
        # fig10 at gamma = mu = 1 has A1 = (1 + mu) gamma k_a = 1.5, where
        # min_headway's 0.197 s is no threshold; its 0.3 s headway was once
        # reported sufficient while |H_p1| = 1.109 exceeds H_p1(0) = 0.5, and
        # then 0.197 s was still reported as the minimum
        text = preset_text("paper-fig10").replace("[analysis]",
                                                  "[analysis]\ndeterministic_gamma = 1")
        path = write(tmp_path, text)
        for command in ("headway", "stability"):
            assert cli.main(["run", command, "--scenario", path,
                             "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "configured headway 0.3 s is insufficient for scheme cacc_plus" in out
        assert "h_min_cacc_plus = none (no string-stable headway at these rates)" in out
        headway, stab = (json.loads((tmp_path / "o" / f"fig10-{c}-report.json").read_text())
                         ["verdicts"] for c in ("headway", "stability"))
        assert headway["h_min_cacc_plus"] is stab["h_min_cacc_plus"] is None
        assert headway["headway_sufficient"] is stab["headway_sufficient"] is False
        assert stab["hinf_h_p1"] == pytest.approx(1.109, abs=5e-4)

    def test_analysis_only_mu_reaches_the_analyses_not_the_run(self, tmp_path):
        # mu without deterministic_gamma: headway and stability read
        # (gamma_of(channel), mu), while the run samples its channels as if
        # mu were not there (a shorter horizon keeps the suite quick)
        plain = preset_text("paper-fig8").replace("horizon = 40.0", "horizon = 10.0")
        texts = {"plain": plain, "mu": plain.replace("[analysis]", "[analysis]\nmu = 0.3")}
        for name, text in texts.items():
            path = write(tmp_path, text, f"{name}.ini")
            for command in ("headway", "stability", "simulate"):
                assert cli.main(["run", command, "--scenario", path,
                                 "--out", str(tmp_path / name)]) == 0
        verdicts = {(name, c): json.loads((tmp_path / name / f"fig8-{c}.json").read_text())
                    ["verdicts"] for name in texts
                    for c in ("headway-report", "stability-report", "report")}
        headway, stab = verdicts["mu", "headway-report"], verdicts["mu", "stability-report"]
        gamma = gamma_of(GilbertParams(0.2, 0.1, 0.2))
        assert (headway["gamma"], headway["mu"]) == (gamma, 0.3)
        assert headway["h_min_cacc_plus_mu"] == min_headway(0.4, gamma, 0.3, 0.2)
        assert headway == {key: stab[key] for key in headway}
        ss = build_error_system(Gains(0.2, 2.5, 1.0), 0.4, 0.45, Scheme.CACC_PLUS, gamma, 0.3)
        assert [stab["hinf_h_p1"], stab["hinf_h_p2"]] == [hinf_norm(tf) for tf in ss.tfs]
        assert "mu" not in verdicts["plain", "headway-report"]
        assert verdicts["mu", "report"] == verdicts["plain", "report"]
        csvs = sorted(p.name for p in (tmp_path / "plain").glob("*.csv"))
        assert len(csvs) == 6
        for name in csvs:
            assert (tmp_path / "mu" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_every_report_is_strict_json(self, tmp_path):
        # JSON has no NaN or Infinity; a report that wrote either would not
        # parse elsewhere.  The presets are cut short to keep this quick.
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        short = {"horizon": "3.0", "segments": "0:0, 1:-9, 2:0",
                 "stochastic_seeds": "2", "n_realizations": "2"}
        for preset in ("paper-fig4", "paper-fig8", "paper-fig9", "paper-fig10"):
            text = preset_text(preset)
            for key, value in short.items():
                text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
            path = write(tmp_path, text, f"{preset}.ini")
            out = tmp_path / preset
            for command in ("headway", "simulate", "montecarlo", "stability", "oracle"):
                assert cli.main(["run", command, "--scenario", path, "--out", str(out)]) == 0
            reports = sorted(out.glob("*.json"))
            assert len(reports) == 5, preset
            for report in reports:
                json.loads(report.read_text(encoding="utf-8"), parse_constant=reject)

    def test_relative_map_paths_follow_the_scenario_file(self, tmp_path, monkeypatch):
        # scen/s.ini names maps/thr.csv: it ran from scen/ only, and from a
        # sibling directory exited 2 with "No such file or directory"
        from platoon_lab.maps import synthetic_throttle_map
        (tmp_path / "scen" / "maps").mkdir(parents=True)
        (tmp_path / "other").mkdir()
        write_map_csv(synthetic_throttle_map(), tmp_path / "scen" / "maps" / "thr.csv")
        text = BASE.replace("scheme = cacc", "scheme = cacc\nmodel = empirical\n"
                            "throttle_map = maps/thr.csv").replace(
            "horizon = 20.0", "horizon = 2.0")
        write(tmp_path / "scen", text, "s.ini")
        reports = []
        for cwd, scenario in (("scen", "s.ini"), ("other", "../scen/s.ini"), (".", "scen/s.ini")):
            monkeypatch.chdir(tmp_path / cwd)
            assert cli.main(["run", "simulate", "--scenario", scenario,
                             "--out", str(tmp_path / "o" / cwd)]) == 0, cwd
            reports.append(json.loads((tmp_path / "o" / cwd / "base-report.json").read_text()))
        # the config hash covers the map file's contents, wherever it is read from
        assert len({r["config_hash"] for r in reports}) == 1
        assert len({json.dumps(r["verdicts"]) for r in reports}) == 1
        # text without a file takes relative names from the working directory
        with pytest.raises(ScenarioError, match="cannot load pedal map"):
            parse_scenario_text(text)
        monkeypatch.chdir(tmp_path / "scen")
        assert (parse_scenario_text(text).config.throttle_map
                == load_scenario(str(tmp_path / "scen" / "s.ini")).config.throttle_map)

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLATOON_LAB_OUT", str(tmp_path / "envout"))
        rc = cli.main(["run", "headway", "--scenario", write(tmp_path, BASE)])
        assert rc == 0
        assert (tmp_path / "envout" / "base-headway-report.json").exists()


def test_importing_the_cli_leaves_scipy_signal_unloaded():
    # scipy.signal adds about 1.1 s to the import, against about 0.45 s of
    # set-up for a whole command; the program runs on numpy alone
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys, platoon_lab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_only_stability_loads_scipy_linalg(tmp_path):
    # Once the only command that loaded scipy.linalg, stability now loads no
    # scipy module either: scipy.linalg alone costs 0.13-0.22 s and about
    # 20 MiB of start-up, and the program runs on numpy alone. The engine and
    # the stability analysis share one exponential (sim.expm), and the
    # Gramians are a numpy solve. So no scipy module at all may be loaded
    # after the import or after any command.
    short = {"horizon": "3.0", "segments": "0:0, 1:-9, 2:0",
             "stochastic_seeds": "2", "n_realizations": "2"}
    for preset in ("paper-fig4", "paper-fig8"):
        text = preset_text(preset)
        for key, value in short.items():
            text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        write(tmp_path, text, f"{preset}.ini")
    runs = [("headway", "paper-fig8"), ("oracle", "paper-fig8"), ("simulate", "paper-fig8"),
            ("montecarlo", "paper-fig4"), ("stability", "paper-fig8")]
    argv = ["|".join(["run", command, "--scenario", str(tmp_path / f"{preset}.ini"),
                      "--out", str(tmp_path / "o")]) for command, preset in runs]
    code = ("import sys\n"
            "from platoon_lab import cli\n"
            "def scipy():\n"
            "    return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "print('loaded import', scipy())\n"
            "for argv in sys.argv[1:]:\n"
            "    rc = cli.main(argv.split('|'))\n"
            "    print('loaded', argv.split('|')[1], rc, scipy())\n")
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                            text=True, check=True)
    loaded = [line for line in result.stdout.splitlines() if line.startswith("loaded ")]
    assert loaded == ["loaded import False", "loaded headway 0 False", "loaded oracle 0 False",
                      "loaded simulate 0 False", "loaded montecarlo 0 False",
                      "loaded stability 0 False"]
