import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from platoon_lab import cli
from platoon_lab.control import Gains, Scheme
from platoon_lab.output import write_timeseries_csv
from platoon_lab.scenario import ScenarioError, load_scenario
from platoon_lab.sim import empirical_string_stability, simulate, simulate_deterministic
from platoon_lab.stability import build_error_system, peak_output_bound

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
        assert scen.config.deterministic_gamma == pytest.approx(0.466667, abs=1e-6)
        # the (i, i-2) links run at their own channel's rate mu = 1/6 in
        # `simulate` too, as in the analyses; they once ran at gamma
        plus = (text.replace("n_followers = 3", "n_followers = 4")
                .replace("scheme = cacc", "scheme = cacc_plus")
                .replace("r_recv_bad = 0.2", "r_recv_bad = 0.2\n"
                         "p_gb_2 = 0.5\nq_bg_2 = 0.1\nr_recv_bad_2 = 0"))
        path = write(tmp_path, plus, "plus.ini")
        scen = load_scenario(path)
        assert scen.config.mu == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert scen.mu_for_analysis() == scen.config.mu
        assert scen.gamma_for_analysis() == scen.config.deterministic_gamma
        rc = cli.main(["run", "simulate", "--scenario", path, "--out", str(tmp_path / "o")])
        assert rc == 0
        peaks = json.loads((tmp_path / "o" / "base-report.json").read_text())["verdicts"]["peaks"]
        expected = simulate_deterministic(scen.config, scen.maneuver,
                                          7.0 / 15.0, 1.0 / 6.0)
        np.testing.assert_allclose(peaks, empirical_string_stability(expected)[1],
                                   rtol=1e-12)
        # an explicit mu still wins
        scen = load_scenario(write(tmp_path, plus.replace(
            "deterministic_gamma = auto", "deterministic_gamma = auto\nmu = 0.3"), "mu.ini"))
        assert scen.config.mu == 0.3 and scen.mu_for_analysis() == 0.3

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
        synthetic_throttle_map().to_csv(tmp_path / "thr.csv")
        synthetic_brake_map().to_csv(tmp_path / "brk.csv")
        text = BASE.replace("scheme = cacc", "scheme = cacc\nmodel = empirical\n"
                            f"throttle_map = {tmp_path / 'thr.csv'}\n"
                            f"brake_map = {tmp_path / 'brk.csv'}")
        a = load_scenario(write(tmp_path, text, "a.ini"))
        assert load_scenario(write(tmp_path, text, "b.ini")).config_hash == a.config_hash
        # same INI text, different throttle-map contents
        synthetic_throttle_map(pedal_points=9).to_csv(tmp_path / "thr.csv")
        changed = load_scenario(write(tmp_path, text, "c.ini"))
        assert changed.config.throttle_map != a.config.throttle_map
        assert changed.config_hash != a.config_hash
        synthetic_throttle_map().to_csv(tmp_path / "thr.csv")
        assert load_scenario(write(tmp_path, text, "d.ini")).config_hash == a.config_hash


class TestCsvFidelity:
    def test_roundtrip_exact(self, tmp_path):
        scen = load_scenario("paper-fig8", master_seed=7)
        from dataclasses import replace
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
        ("alpha_star = -0.5", "stability"),
        ("n_realizations = 0", "montecarlo"),
        ("stochastic_seeds = -1", "simulate"),
    ])
    def test_bad_analysis_value_exit_2(self, tmp_path, capsys, setting, command):
        # each value once loaded and then crashed in the command, or went
        # through: stochastic_seeds < 0 was ignored, w0_l2 = nan gave NaN bounds
        key = setting.split()[0]
        lines = [line for line in BASE.splitlines() if not line.startswith(key + " =")]
        text = "\n".join(lines).replace("[analysis]", "[analysis]\n" + setting)
        rc = cli.main(["run", command, "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert key in capsys.readouterr().err

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

    def test_montecarlo_divergence_exit_3(self, tmp_path):
        text = DIVERGENT.replace("deterministic_gamma = 0.0", "n_realizations = 3") + (
            "\n[channel]\np_gb = 0.2\nq_bg = 0.1\nr_recv_bad = 0.2\n")
        rc = cli.main(["run", "montecarlo", "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_u_clamp_on_point_mass_exit_2(self, tmp_path, capsys, command):
        text = BASE.replace("scheme = cacc", "scheme = cacc\nu_clamp_min = -2\nu_clamp_max = 1")
        rc = cli.main(["run", command, "--scenario", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "empirical" in capsys.readouterr().err

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

        for name in ("simulate", "simulate_panels", "seed_peaks"):
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
        radio_free = build_error_system(Gains(0.5, 2.5, 1.0), 0.4, 1.0, 0.0, Scheme.CACC)
        expected = peak_output_bound(radio_free, 0.0, 9.0).evaluate(9.0)
        assert verdicts["peak_error_bound"] == verdicts["safe_standstill_distance"] == expected

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLATOON_LAB_OUT", str(tmp_path / "envout"))
        rc = cli.main(["run", "headway", "--scenario", write(tmp_path, BASE)])
        assert rc == 0
        assert (tmp_path / "envout" / "base-headway-report.json").exists()


def test_importing_the_cli_leaves_scipy_signal_unloaded():
    # scipy.signal adds about 1.1 s to the import, against about 0.45 s of
    # set-up for a whole command; scipy.linalg carries what the program needs
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys, platoon_lab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"
