"""Command-line interface: argument plumbing, config-file merging, exit
codes, printed key=value output, and the files each subcommand writes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramsey_sensing
from ramsey_sensing.cli import main
from ramsey_sensing.montecarlo import read_shot_table

TWO_PI = 2 * math.pi

# one-off analytic results, measured once and pinned
INTERMITTENT_GMIN_HZ = 293.5471862857504
INTERMITTENT_GMIN_RAD_S = 1844.4113678345357
CONSTANT_GMIN_RAD_S = 0.05213714442179438


def run_cli(argv):
    """main() returns 0/1/2; argparse usage errors surface as SystemExit(2)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def kv_output(capsys) -> dict[str, str]:
    out = capsys.readouterr().out
    return dict(line.split("=", 1) for line in out.strip().splitlines())


class TestAnalytic:
    def test_intermittent_from_contrast(self, capsys):
        rc = run_cli(["analytic", "--scenario", "intermittent", "--contrast", "0.903",
                      "--omega-s-hz", "2000", "--sigma-hz", "275"])
        assert rc == 0
        kv = kv_output(capsys)
        assert float(kv["g_min_hz"]) == pytest.approx(INTERMITTENT_GMIN_HZ, rel=1e-13)
        assert kv["validity"] == "true"
        assert kv["method"] == "closed_form"
        # printed pair is self-consistent after round-tripping through text
        assert float(kv["g_min_rad_s"]) / TWO_PI == float(kv["g_min_hz"])

    def test_fidelity_path_matches_contrast_path(self, capsys):
        rc = run_cli(["analytic", "--scenario", "intermittent",
                      "--fidelity", "0.9047787237550715", "--t2", "7.97e-3",
                      "--omega-s-hz", "2000", "--sigma-hz", "275"])
        assert rc == 0
        kv = kv_output(capsys)
        assert float(kv["g_min_rad_s"]) == pytest.approx(
            INTERMITTENT_GMIN_RAD_S, rel=1e-13)

    def test_constant_scenario(self, capsys):
        rc = run_cli(["analytic", "--scenario", "constant", "--fidelity", "1.0",
                      "--t2", "1.0", "--ti", "1.0"])
        assert rc == 0
        kv = kv_output(capsys)
        assert float(kv["g_min_rad_s"]) == pytest.approx(CONSTANT_GMIN_RAD_S, rel=1e-13)

    def test_csv_sidecar_mirrors_stdout(self, capsys, tmp_path):
        path = tmp_path / "result.csv"
        rc = run_cli(["analytic", "--scenario", "constant", "--fidelity", "0.8",
                      "--t2", "5e-3", "--ti", "5e-3", "--csv", str(path)])
        assert rc == 0
        kv = kv_output(capsys)
        header, row = path.read_text().strip().splitlines()
        assert header.split(",") == list(kv)
        assert row.split(",") == list(kv.values())

    def test_missing_scenario_flag(self, capsys):
        rc = run_cli(["analytic", "--omega-s-hz", "2000", "--sigma-hz", "275"])
        assert rc == 2
        assert "--scenario is required" in capsys.readouterr().err

    def test_missing_sigma_flag(self, capsys):
        rc = run_cli(["analytic", "--scenario", "intermittent", "--omega-s-hz", "2000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: --sigma-hz is required for scenario intermittent" in err

    def test_unknown_scenario_is_a_usage_error(self):
        assert run_cli(["analytic", "--scenario", "nope"]) == 2

    @pytest.mark.parametrize("source", [["--fidelity", "0.9", "--t2", "0.008"],
                                        ["--contrast", "0.903"]])
    @pytest.mark.parametrize("omega_s_hz, sigma_hz", [("0", "275"), ("nan", "275"),
                                                      ("2000", "0"), ("2000", "inf")])
    def test_bad_tones_are_usage_errors(self, capsys, source, omega_s_hz, sigma_hz):
        rc = run_cli(["analytic", "--scenario", "intermittent", "--omega-s-hz", omega_s_hz,
                      "--sigma-hz", sigma_hz, *source])
        assert rc == 2
        assert "omega_s and sigma must be finite and > 0" in capsys.readouterr().err

    def test_threads_must_be_positive(self, capsys):
        rc = run_cli(["analytic", "--scenario", "constant", "--fidelity", "1",
                      "--t2", "1", "--ti", "1", "--threads", "0"])
        assert rc == 2
        assert "--threads must be >= 1" in capsys.readouterr().err


class TestConfigFile:
    def test_fills_unset_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# burst example\n"
            "omega-s-hz = 2000\n"
            "sigma-hz = 275   # Hz\n"
            "contrast = 0.903\n")
        rc = run_cli(["analytic", "--scenario", "intermittent", "--config", str(cfg)])
        assert rc == 0
        kv = kv_output(capsys)
        assert float(kv["g_min_hz"]) == pytest.approx(INTERMITTENT_GMIN_HZ, rel=1e-13)

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("contrast = 0.5\nomega-s-hz = 2000\nsigma-hz = 275\n")
        rc = run_cli(["analytic", "--scenario", "intermittent",
                      "--contrast", "0.903", "--config", str(cfg)])
        assert rc == 0
        kv = kv_output(capsys)
        assert kv["contrast"] == "0.903"
        assert float(kv["g_min_hz"]) == pytest.approx(INTERMITTENT_GMIN_HZ, rel=1e-13)

    def test_unknown_key_is_fatal(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seeed = 1\n")
        rc = run_cli(["analytic", "--scenario", "constant", "--fidelity", "1",
                      "--t2", "1", "--ti", "1", "--config", str(cfg)])
        assert rc == 2
        assert "unknown config key: seeed" in capsys.readouterr().err

    def test_malformed_line_is_fatal(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        rc = run_cli(["analytic", "--scenario", "constant", "--config", str(cfg)])
        assert rc == 2
        assert "config line 1" in capsys.readouterr().err

    def test_unparseable_value_is_fatal(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = many\n")
        rc = run_cli(["analytic", "--scenario", "constant", "--fidelity", "1",
                      "--t2", "1", "--ti", "1", "--config", str(cfg)])
        assert rc == 2
        assert "config key n" in capsys.readouterr().err

    def test_choice_keys_are_validated(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("convention = sideways\n")
        rc = run_cli(["analytic", "--scenario", "constant", "--fidelity", "1",
                      "--t2", "1", "--ti", "1", "--config", str(cfg)])
        assert rc == 2
        assert "is not one of" in capsys.readouterr().err

    def test_missing_file_is_fatal(self, capsys, tmp_path):
        rc = run_cli(["analytic", "--scenario", "constant",
                      "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err


class TestSimulate:
    ARGS = ["simulate", "--scenario", "intermittent", "--g-hz", "120",
            "--omega-s-hz", "2000", "--sigma-hz", "275", "--fidelity", "0.9",
            "--t2", "8e-3", "--ti", "5e-4", "--n", "400", "--m", "1"]

    def test_writes_table_and_reports_estimate(self, capsys, tmp_path):
        out = tmp_path / "sim"
        rc = run_cli(self.ARGS + ["--seed", "5", "--out", str(out)])
        assert rc == 0
        kv = kv_output(capsys)
        assert kv["shots"] == "400" and kv["sensors"] == "1"
        assert 0.0 <= float(kv["p_hat"]) <= 1.0
        counts, meta = read_shot_table(out / "shot_table.csv")
        assert meta["signal"] == "intermittent_two_tone"
        # default burst window is one center period
        assert float(meta["t_sig_s"]) == pytest.approx(5e-4, rel=1e-12)
        assert counts.shape == (400,)

    def test_tone_at_zero_frequency_simulates(self, capsys, tmp_path):
        # g = omega_s puts one FULL_SPLIT tone at 0 rad/s
        args = [a if a != "120" else "2000" for a in self.ARGS]
        rc = run_cli(args + ["--seed", "5", "--out", str(tmp_path / "sim")])
        assert rc == 0
        assert 0.0 <= float(kv_output(capsys)["p_hat"]) <= 1.0

    def test_same_seed_reproduces_the_file(self, capsys, tmp_path):
        a, b, c = (tmp_path / k for k in "abc")
        run_cli(self.ARGS + ["--seed", "5", "--out", str(a)])
        run_cli(self.ARGS + ["--seed", "5", "--out", str(b)])
        run_cli(self.ARGS + ["--seed", "6", "--out", str(c)])
        capsys.readouterr()
        bytes_a = (a / "shot_table.csv").read_bytes()
        assert bytes_a == (b / "shot_table.csv").read_bytes()
        assert bytes_a != (c / "shot_table.csv").read_bytes()


class TestScan:
    def test_fig2_report_and_exit_code(self, capsys, tmp_path):
        out = tmp_path / "fig2"
        rc = run_cli(["scan", "fig2", "--out", str(out)])
        assert rc == 0
        assert "7/7 checks passed" in capsys.readouterr().out
        assert "constant,0.5,4,4.0" in (out / "compensation.csv").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert all(c["passed"] for c in manifest["checks"])

    def test_fig3_with_reduced_mc_budget(self, capsys, tmp_path):
        out = tmp_path / "fig3"
        rc = run_cli(["scan", "fig3", "--seed", "42", "--mc-shots", "2000",
                      "--threads", "2", "--out", str(out)])
        assert rc == 0
        assert "9/9 checks passed" in capsys.readouterr().out
        assert (out / "fig3a_snr.csv").exists()
        assert (out / "fig3d_excess_sensors.csv").exists()

    def test_fig3_flags_rejected_for_fig2(self, capsys):
        rc = run_cli(["scan", "fig2", "--mc-shots", "5"])
        assert rc == 2
        assert "apply to the fig3 preset only" in capsys.readouterr().err


class TestReplicaCommand:
    def test_replica_run(self, capsys, tmp_path):
        out = tmp_path / "replica"
        rc = run_cli(["replica", "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert "5/5 checks passed" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        by_name = {c["name"]: c for c in manifest["checks"]}
        assert by_name["gmin_290hz_within_15pct"]["passed"] is True
        assert (out / "population.csv").exists()
        assert (out / "estimates_qpn_limited.csv").exists()

    def test_degrade_run_with_custom_flips(self, capsys, tmp_path):
        out = tmp_path / "degrade"
        rc = run_cli(["replica", "degrade", "--seed", "7",
                      "--flips", "0.0,0.05,0.1,0.2", "--out", str(out)])
        assert rc == 0
        assert "3/3 checks passed" in capsys.readouterr().out
        lines = (out / "degradation.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4

    def test_degrade_flags_rejected_on_plain_replica(self, capsys):
        rc = run_cli(["replica", "--flips", "0.0,0.1"])
        assert rc == 2
        assert "apply to 'replica degrade'" in capsys.readouterr().err

    def test_excess_rejected_on_degrade(self, capsys):
        rc = run_cli(["replica", "degrade", "--excess", "2.0"])
        assert rc == 2
        assert "applies to the plain replica only" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    # The child runs from tmp_path, so a relative PYTHONPATH (e.g. "src") would
    # no longer reach the package: put the imported package's root first.
    package_root = str(Path(ramsey_sensing.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [package_root] + ([inherited] if inherited else []))}
    proc = subprocess.run(
        [sys.executable, "-m", "ramsey_sensing", "analytic", "--scenario", "constant",
         "--fidelity", "1.0", "--t2", "1.0", "--ti", "1.0"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0
    assert f"g_min_rad_s={CONSTANT_GMIN_RAD_S!r}" in proc.stdout
