import json

import numpy as np
import pytest

from platoon_lab import cli
from platoon_lab.output import read_timeseries_csv, write_timeseries_csv
from platoon_lab.scenario import ScenarioError, load_scenario
from platoon_lab.sim import simulate

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

    def test_divergence_exit_3(self, tmp_path):
        path = write(tmp_path, DIVERGENT)
        rc = cli.main(["run", "simulate", "--scenario", path, "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_analysis_error_exit_4(self, tmp_path):
        path = write(tmp_path, DIVERGENT)
        rc = cli.main(["run", "stability", "--scenario", path, "--out", str(tmp_path / "o")])
        assert rc == 4


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

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLATOON_LAB_OUT", str(tmp_path / "envout"))
        rc = cli.main(["run", "headway", "--scenario", write(tmp_path, BASE)])
        assert rc == 0
        assert (tmp_path / "envout" / "base-headway-report.json").exists()
