"""Command-line interface: argument plumbing, @file arguments, exit codes,
printed key=value output, and the files each subcommand writes."""

from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ramsey_sensing
from ramsey_sensing import experiments, sensitivity
from ramsey_sensing.cli import main
from ramsey_sensing.montecarlo import simulate_shots
from ramsey_sensing.sensor import EnsembleConfig, SensorModel
from ramsey_sensing.signals import IntermittentTwoTone
from ramsey_sensing.streams import derive_stream

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

    def test_contrast_path_reads_the_package_validity_rule(self, capsys, monkeypatch):
        # one validity rule: tightening sensitivity's limit flips the printed flag
        monkeypatch.setattr(sensitivity, "VALIDITY_LIMIT", 0.0)
        rc = run_cli(["analytic", "--scenario", "intermittent", "--contrast", "0.903",
                      "--omega-s-hz", "2000", "--sigma-hz", "275"])
        assert rc == 0
        assert kv_output(capsys)["validity"] == "false"

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

    @pytest.mark.parametrize("ti", ["0.5", "1"])
    def test_constant_past_contrast_underflow_is_a_usage_error(self, capsys, ti):
        # C(t_i) = 0.9 e^{-t_i^2/(2 T2^2)} underflows to 0.0 at these times
        rc = run_cli(["analytic", "--scenario", "constant", "--fidelity", "0.9",
                      "--t2", "0.01", "--ti", ti])
        assert rc == 2
        assert "contrast underflows" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, unread", [
        (["--scenario", "intermittent", "--contrast", "0.903", "--omega-s-hz", "2000",
          "--sigma-hz", "275", "--ti", "5", "--fidelity", "0.1", "--t2", "1e-6"],
         "--fidelity, --t2, --ti"),
        (["--scenario", "intermittent", "--fidelity", "0.9", "--t2", "8e-3",
          "--omega-s-hz", "2000", "--sigma-hz", "275", "--ti", "1"], "--ti"),
        (["--scenario", "constant", "--fidelity", "1", "--t2", "1", "--ti", "1",
          "--contrast", "0.5", "--sigma-hz", "275"],
         "--contrast, --sigma-hz"),
        (["--scenario", "variance", "--fidelity", "1", "--t2", "1", "--ti", "1",
          "--seed", "3", "--out", "x", "--threads", "2"], "--seed, --out, --threads"),
    ])
    def test_flags_the_path_does_not_read_are_usage_errors(self, capsys, argv, unread):
        rc = run_cli(["analytic", *argv])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().endswith(f"does not read {unread}")

    def test_threads_must_be_positive(self, capsys):
        rc = run_cli(["analytic", "--scenario", "constant", "--fidelity", "1",
                      "--t2", "1", "--ti", "1", "--threads", "0"])
        assert rc == 2
        assert "--threads must be >= 1" in capsys.readouterr().err


class TestArgumentFile:
    """@PATH stands for the arguments in the file, read in order with the
    command line and checked by the same parser."""

    BURST = ["analytic", "--scenario", "intermittent"]

    @staticmethod
    def args_file(tmp_path, text):
        path = tmp_path / "run.args"
        path.write_text(text)
        return f"@{path}"

    def test_fills_flags(self, capsys, tmp_path):
        f = self.args_file(tmp_path, "--contrast 0.903  # C(t1)\n--omega-s-hz 2000\n"
                                     "--sigma-hz 275\n")
        assert run_cli([*self.BURST, f]) == 0
        assert f"g_min_hz={INTERMITTENT_GMIN_HZ!r}" in capsys.readouterr().out

    def test_comments_blank_lines_and_quoted_values(self, capsys, tmp_path):
        csv = tmp_path / "a result.csv"
        f = self.args_file(tmp_path, f"# burst example\n\n--omega-s-hz 2000 --sigma-hz 275\n"
                                     f"   # indented comment\n--contrast '0.903'\n"
                                     f'--csv "{csv}"  # a path with a space\n')
        assert run_cli([*self.BURST, f]) == 0
        kv = kv_output(capsys)
        assert float(kv["g_min_hz"]) == INTERMITTENT_GMIN_HZ
        assert csv.exists()

    @pytest.mark.parametrize("order", ["file_first", "flag_first"])
    def test_the_later_value_wins(self, capsys, tmp_path, order):
        tones = ["--omega-s-hz", "2000", "--sigma-hz", "275"]
        if order == "file_first":
            argv = [self.args_file(tmp_path, "--contrast 0.5\n"), "--contrast", "0.903"]
        else:
            argv = ["--contrast", "0.5", self.args_file(tmp_path, "--contrast 0.903\n")]
        assert run_cli([*self.BURST, *tones, *argv]) == 0
        kv = kv_output(capsys)
        assert kv["contrast"] == "0.903"
        assert float(kv["g_min_hz"]) == INTERMITTENT_GMIN_HZ

    def test_a_file_may_hold_the_whole_command(self, capsys, tmp_path):
        f = self.args_file(tmp_path, "analytic --scenario constant\n"
                                     "--fidelity 1.0 --t2 1.0 --ti 1.0\n")
        assert run_cli([f]) == 0
        assert f"g_min_rad_s={CONSTANT_GMIN_RAD_S!r}" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        ("--seeed 1\n", "unrecognized arguments: --seeed 1"),
        ("--n many\n", "argument --n: invalid int value: 'many'"),
        ("--convention full_split\n", "unrecognized arguments: --convention full_split"),
    ])
    def test_bad_file_flags_exit_2(self, capsys, tmp_path, text, message):
        constant = ["analytic", "--scenario", "constant", "--fidelity", "1", "--t2", "1",
                    "--ti", "1"]
        assert run_cli([*constant, self.args_file(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert run_cli([*self.BURST, f"@{tmp_path / 'absent.args'}"]) == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_unbalanced_quote_exits_2_without_a_traceback(self, capsys, tmp_path):
        f = self.args_file(tmp_path, "--omega-s-hz 2000 --sigma-hz '275\n")
        assert main([*self.BURST, "--contrast", "0.903", f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: No closing quotation\n"

    def test_file_flag_the_path_does_not_read(self, capsys, tmp_path):
        f = self.args_file(tmp_path, "--omega-s-hz 2000\n--sigma-hz 275\n--ti 5\n")
        assert run_cli([*self.BURST, "--contrast", "0.903", f]) == 2
        assert capsys.readouterr().err == (
            "error: analytic --scenario intermittent --contrast does not read --ti\n")

    def test_a_value_starting_with_at_joins_its_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--scenario", "constant", "--g-hz", "120", "--fidelity", "0.9",
                "--t2", "8e-3", "--ti", "5e-4", "--n", "40", "--m", "1"]
        assert run_cli([*argv, "--out=@sim"]) == 0
        assert (tmp_path / "@sim" / "shot_table.csv").exists()

    def test_the_config_flag_is_gone(self, capsys):
        assert run_cli([*self.BURST, "--config", "x"]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err


# the tones always sit at omega_s +/- g: no command takes a tone convention
NO_CONVENTION = {
    "analytic": ["analytic", "--scenario", "intermittent", "--contrast", "0.903",
                 "--omega-s-hz", "2000", "--sigma-hz", "275"],
    "simulate": ["simulate", "--scenario", "two_tone", "--g-hz", "120", "--omega-s-hz",
                 "2000", "--sigma-hz", "275", "--fidelity", "0.9", "--t2", "8e-3",
                 "--ti", "5e-4", "--n", "40", "--m", "1"],
    # the one-tone scenarios never read the tones: the flag is unknown there too
    **{f"simulate_{scenario}": ["simulate", "--scenario", scenario, "--g-hz", "120",
                                "--fidelity", "0.9", "--t2", "8e-3", "--ti", "5e-4",
                                "--n", "40", "--m", "1"]
       for scenario in ("constant", "stochastic")},
}


@pytest.mark.parametrize("command", sorted(NO_CONVENTION))
def test_a_convention_flag_is_unrecognized(capsys, tmp_path, command):
    out = tmp_path / "out"
    argv = [*NO_CONVENTION[command], "--convention", "full_split", "--out", str(out)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --convention full_split" in captured.err
    assert not out.exists()


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
        assert kv["table"] == str(out / "shot_table.csv")
        parameters = json.loads((out / "manifest.json").read_text())["parameters"]
        assert parameters["signal"] == "IntermittentTwoTone"
        # default burst window is one center period
        assert parameters["t_sig_s"] == pytest.approx(5e-4, rel=1e-12)
        counts = np.loadtxt(out / "shot_table.csv", delimiter=",", skiprows=1,
                            dtype=np.int64)[:, 1]
        assert counts.shape == (400,) and set(counts.tolist()) <= {0, 1}

    def test_tone_at_zero_frequency_simulates(self, capsys, tmp_path):
        # g = omega_s puts one FULL_SPLIT tone at 0 rad/s
        args = [a if a != "120" else "2000" for a in self.ARGS]
        rc = run_cli(args + ["--seed", "5", "--out", str(tmp_path / "sim")])
        assert rc == 0
        assert 0.0 <= float(kv_output(capsys)["p_hat"]) <= 1.0

    def test_same_seed_reproduces_the_files(self, capsys, tmp_path):
        a, b, c = (tmp_path / k for k in "abc")
        run_cli(self.ARGS + ["--seed", "5", "--out", str(a)])
        run_cli(self.ARGS + ["--seed", "5", "--out", str(b)])
        run_cli(self.ARGS + ["--seed", "6", "--out", str(c)])
        capsys.readouterr()
        for name in ("shot_table.csv", "manifest.json"):
            bytes_a = (a / name).read_bytes()
            assert bytes_a == (b / name).read_bytes()
            assert bytes_a != (c / name).read_bytes()


class TestShotTableIO:
    """simulate writes its --out directory as the pipelines do: the shot
    table as CSV and a manifest of the parameters that produced it."""

    COMMON = ["--g-hz", "120", "--fidelity", "0.9", "--t2", "8e-3", "--ti", "5e-4",
              "--n", "64", "--m", "1", "--seed", "41"]
    TONES = ["--omega-s-hz", "2000", "--sigma-hz", "275"]

    def simulate(self, capsys, out, scenario, *flags):
        assert run_cli(["simulate", "--scenario", scenario, *self.COMMON, *flags,
                        "--out", str(out)]) == 0
        capsys.readouterr()
        return json.loads((out / "manifest.json").read_text())

    def test_round_trip_counts_and_metadata(self, capsys, tmp_path):
        out = tmp_path / "sim"
        manifest = self.simulate(capsys, out, "intermittent", *self.TONES, "--t-sig", "6e-4")
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "shot_table.csv"]
        assert manifest == {
            "pipeline_id": "simulate",
            "seed": 41,
            "parameters": {
                "signal": "IntermittentTwoTone", "g_hz": 120.0, "omega_s_hz": 2000.0,
                "sigma_hz": 275.0, "t_sig_s": 6e-4,
                "fidelity": 0.9, "t2_s": 8e-3, "theta_rad": 0.0, "n_shots": 64,
                "m_sensors": 1, "t_i_s": 5e-4, "stream_path": [0, 0],
            },
            "checks": [],
            "tables": ["shot_table.csv"],
        }
        lines = (out / "shot_table.csv").read_text().splitlines()
        assert lines[0] == "shot_index,count"
        rows = np.loadtxt(lines[1:], delimiter=",", dtype=np.int64)
        assert np.array_equal(rows[:, 0], np.arange(64))
        spec = IntermittentTwoTone(TWO_PI * 2000, TWO_PI * 120, TWO_PI * 275, 6e-4)
        table = simulate_shots(spec, SensorModel(0.9, 8e-3), EnsembleConfig(64, 1), 5e-4,
                               derive_stream(41, 0, 0))
        assert np.array_equal(rows[:, 1], table.counts)

    @pytest.mark.parametrize("scenario, signal, keys", [
        ("constant", "Constant", set()),
        ("stochastic", "StochasticAmplitude", set()),
        ("two_tone", "TwoToneStochastic", {"omega_s_hz", "sigma_hz"}),
        ("intermittent", "IntermittentTwoTone", {"omega_s_hz", "sigma_hz", "t_sig_s"}),
    ])
    def test_signal_tags_cover_every_class(self, capsys, tmp_path, scenario, signal, keys):
        flags = self.TONES if keys else []
        parameters = self.simulate(capsys, tmp_path / scenario, scenario, *flags)["parameters"]
        assert parameters["signal"] == signal
        assert set(parameters) == keys | {
            "signal", "g_hz", "fidelity", "t2_s", "theta_rad", "n_shots", "m_sensors",
            "t_i_s", "stream_path"}


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
        assert "error: scan fig2 does not read --mc-shots" in capsys.readouterr().err


class TestUnwritableOutput:
    # exit 1 is reserved for failed checks; a path that cannot be written is
    # a usage error, and an --out under a file is one before any work runs
    @pytest.mark.parametrize("argv", [
        ["scan", "fig2", "--out", "{file}"],
        ["scan", "fig3", "--seed", "42", "--out", "{file}"],
        ["replica", "--out", "{file}/sub/dir"],
        [*TestSimulate.ARGS, "--out", "{file}/sub"],
        ["analytic", "--scenario", "constant", "--fidelity", "1", "--t2", "1", "--ti", "1",
         "--csv", "{missing}/x.csv"],
    ], ids=["scan-out-is-a-file", "scan-fig3-out-is-a-file", "replica-out-under-a-file",
            "simulate-out-under-a-file", "analytic-csv-in-a-missing-dir"])
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, monkeypatch, argv):
        for name in ("run_fig2", "run_fig3", "run_experiment_replica"):
            monkeypatch.setattr(experiments, name,
                                lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
        monkeypatch.setattr("ramsey_sensing.cli.simulate_shots",
                            lambda *a, **k: pytest.fail("simulate_shots ran"))
        file = tmp_path / "file"
        file.write_text("")
        rc = main([arg.format(file=file, missing=tmp_path / "missing") for arg in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [file]


# magnitudes at and past the ends of the float range, where a square, a
# fourth power or a product underflows to 0 or overflows
EXTREMES = ("1e-320", "1e-200", "1e-160", "1e160", "1e300")
# each command path with a usable value of every flag that takes an extreme
EXTREME_PATHS = {
    "analytic-constant": (["analytic", "--scenario", "constant"],
                          {"--t2": "0.01", "--ti": "0.001"}),
    "analytic-variance": (["analytic", "--scenario", "variance"],
                          {"--t2": "0.01", "--ti": "0.001"}),
    "analytic-intermittent": (["analytic", "--scenario", "intermittent"],
                              {"--t2": "0.01", "--omega-s-hz": "1000", "--sigma-hz": "275"}),
    "simulate-constant": (["simulate", "--scenario", "constant"],
                          {"--t2": "0.01", "--ti": "0.001", "--g-hz": "10"}),
    "simulate-stochastic": (["simulate", "--scenario", "stochastic"],
                            {"--t2": "0.01", "--ti": "0.001", "--g-hz": "10"}),
    "simulate-two_tone": (["simulate", "--scenario", "two_tone"],
                          {"--t2": "0.01", "--ti": "0.0005", "--g-hz": "10",
                           "--omega-s-hz": "2000", "--sigma-hz": "275"}),
    "simulate-intermittent": (["simulate", "--scenario", "intermittent"],
                              {"--t2": "0.01", "--ti": "0.0005", "--g-hz": "10",
                               "--omega-s-hz": "2000", "--sigma-hz": "275"}),
}


@pytest.mark.parametrize("fidelity", ["1e-10", "0.5"])
@pytest.mark.parametrize("path", EXTREME_PATHS)
def test_extreme_values_give_a_result_or_one_error_line(capsys, tmp_path, path, fidelity):
    # every pair of flags over its usable value and each extreme: a float
    # that leaves the range is a usage error, never a traceback
    command, usable = EXTREME_PATHS[path]
    out = ["--n", "4", "--m", "1", "--out", str(tmp_path)] if command[0] == "simulate" else []
    for a, b in itertools.combinations(usable, 2):
        for x, y in itertools.product((usable[a], *EXTREMES), (usable[b], *EXTREMES)):
            flags = {**usable, a: x, b: y}
            argv = [*command, "--fidelity", fidelity, *itertools.chain(*flags.items()), *out]
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc in (0, 2), argv
            assert rc == 0 or (err.startswith("error: ") and err.count("\n") == 1), argv


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario", ["constant", "stochastic"])
def test_a_phase_past_the_float_range_is_a_usage_error(capsys, tmp_path, scenario):
    # g*t_i overflows, and so does a stochastic g's square: every phase would
    # be inf and every probability NaN, with t_i^2 and so the contrast finite
    rc = main(["simulate", "--scenario", scenario, "--g-hz", "1e300", "--ti", "1e10",
               "--t2", "1e12", "--fidelity", "0.5", "--n", "10", "--m", "1",
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_a_finite_phase_scale_that_overflows_a_phase_is_a_usage_error(capsys, tmp_path):
    # the scale 2 pi * 2e153 * 1e154 = 1.26e308 is finite, but a phase past
    # 1.43 standard deviations is not, and seed 1 draws one in its 10 shots
    rc = main(["simulate", "--scenario", "stochastic", "--g-hz", "2e153", "--ti", "1e154",
               "--t2", "1.3e154", "--fidelity", "0.5", "--n", "10", "--m", "1", "--seed", "1",
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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

    def test_degrade_run_with_two_flips(self, capsys, tmp_path):
        # a grid shorter than four flips needs every row resolved, not four
        out = tmp_path / "degrade"
        rc = run_cli(["replica", "degrade", "--seed", "7", "--flips=0,0.1", "--reps", "2",
                      "--out", str(out)])
        assert rc == 0
        assert "3/3 checks passed" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        by_name = {c["name"]: c for c in manifest["checks"]}
        assert by_name["gmin_resolved_rows"]["expected"] == 2

    def test_degrade_negative_zero_flip_is_written_as_zero(self, capsys, tmp_path):
        out = tmp_path / "degrade"
        rc = run_cli(["replica", "degrade", "--seed", "7", "--flips=-0,0.1", "--reps", "2",
                      "--out", str(out)])
        assert rc == 0
        lines = (out / "degradation.csv").read_text().splitlines()
        assert lines[1].startswith("0.0,")
        manifest = (out / "manifest.json").read_text()
        assert json.loads(manifest)["parameters"]["flip_grid"] == [0.0, 0.1]
        assert "-0.0" not in manifest

    def test_degrade_flags_rejected_on_plain_replica(self, capsys):
        rc = run_cli(["replica", "--flips", "0.0,0.1"])
        assert rc == 2
        assert "error: replica does not read --flips" in capsys.readouterr().err

    @pytest.mark.parametrize("flips", [",", ""])
    def test_empty_flip_grid_is_a_usage_error(self, capsys, flips):
        rc = run_cli(["replica", "degrade", "--flips", flips])
        assert rc == 2
        assert "flip grid must hold at least one probability" in capsys.readouterr().err

    @pytest.mark.parametrize("flips, message", [
        ("0.1,0.1", "flip probabilities must not repeat"),
        ("0.1,0.2", "flip grid must hold 0.0"),
    ])
    def test_flip_grid_needs_distinct_values_and_zero(self, capsys, tmp_path, flips, message):
        out = tmp_path / "degrade"
        rc = run_cli(["replica", "degrade", "--flips", flips, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "1", "-3"])
    def test_too_few_repetitions_is_a_usage_error(self, capsys, reps):
        rc = run_cli(["replica", "degrade", "--reps", reps])
        assert rc == 2
        assert "repetitions must be an integer >= 2" in capsys.readouterr().err

    def test_excess_whose_square_overflows_is_a_usage_error(self, capsys, tmp_path):
        out = tmp_path / "replica"
        rc = run_cli(["replica", "--excess", "1e160", "--out", str(out)])
        assert rc == 2
        assert "with excess_factor^2 finite" in capsys.readouterr().err
        assert not out.exists()

    def test_excess_rejected_on_degrade(self, capsys):
        rc = run_cli(["replica", "degrade", "--excess", "2.0"])
        assert rc == 2
        assert "error: replica degrade does not read --excess" in capsys.readouterr().err


# (command path, its other flags, a flag the path does not read, its value)
SHOT_FLAGS = ["--g-hz", "120", "--fidelity", "0.9", "--t2", "8e-3", "--ti", "5e-4",
              "--n", "40", "--m", "1"]
TONE_FLAGS = ["--omega-s-hz", "2000", "--sigma-hz", "275"]
UNREAD = [
    *((f"simulate --scenario {scenario}", SHOT_FLAGS, flag, value)
      for scenario in ("constant", "stochastic")
      for flag, value in (("--omega-s-hz", "2000"), ("--sigma-hz", "275"), ("--t-sig", "5e-4"),
                          ("--threads", "2"))),
    ("simulate --scenario two_tone", SHOT_FLAGS + TONE_FLAGS, "--t-sig", "5e-4"),
    ("simulate --scenario two_tone", SHOT_FLAGS + TONE_FLAGS, "--threads", "2"),
    ("simulate --scenario intermittent", SHOT_FLAGS + TONE_FLAGS, "--threads", "2"),
    ("scan fig2", [], "--seed", "3"),
    ("scan fig2", [], "--threads", "4"),
]


class TestUnreadFlags:
    """Every command path exits 2 on a flag it does not read, before it
    writes anything."""

    @pytest.mark.parametrize("path, flags, flag, value", UNREAD,
                             ids=[f"{path}:{flag}" for path, _, flag, _ in UNREAD])
    def test_flag_the_path_does_not_read(self, capsys, tmp_path, path, flags, flag, value):
        out = tmp_path / "out"
        rc = run_cli([*path.split(), *flags, flag, value, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} does not read {flag}\n"
        assert not out.exists()

    def test_file_flag_the_path_does_not_read(self, capsys, tmp_path):
        args, out = tmp_path / "run.args", tmp_path / "out"
        args.write_text("--threads 2\n")
        rc = run_cli(["scan", "fig2", f"@{args}", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scan fig2 does not read --threads\n"
        assert not out.exists()


class TestPipelineDefaults:
    """Each pipeline command passes a pipeline the seed and only the flags
    that were given, so every default lives in the pipeline's own signature
    and the CLI and the Python API run one study."""

    @staticmethod
    def record_call(monkeypatch, tmp_path, pipeline):
        signature = inspect.signature(getattr(experiments, pipeline))
        calls = []

        def record(*args, **kwargs):
            calls.append(signature.bind(*args, **kwargs).arguments)
            return experiments.PipelineReport(pipeline, None, {})

        monkeypatch.setattr(experiments, pipeline, record)
        monkeypatch.chdir(tmp_path)
        return calls

    @pytest.mark.parametrize("argv, pipeline", [
        (["scan", "fig3"], "run_fig3"),
        (["replica"], "run_experiment_replica"),
        (["replica", "degrade"], "run_fidelity_degradation"),
    ])
    def test_cli_defaults_are_the_signature_defaults(self, capsys, tmp_path, monkeypatch,
                                                      argv, pipeline):
        calls = self.record_call(monkeypatch, tmp_path, pipeline)
        assert run_cli(argv) == 0
        # no optional flag: the pipeline runs at its own signature defaults
        assert calls == [{"seed": 0}]

    @pytest.mark.parametrize("argv, pipeline, passed", [
        (["scan", "fig3", "--t2-ms", "5", "--threads", "2", "--mc-shots", "10"], "run_fig3",
         {"t2": 5e-3, "threads": 2, "mc_shots": 10}),
        (["replica", "--excess", "1.5", "--threads", "2"], "run_experiment_replica",
         {"excess_factor": 1.5, "threads": 2}),
        (["replica", "degrade", "--flips", "0,0.1", "--reps", "3", "--threads", "2"],
         "run_fidelity_degradation", {"flip_grid": (0.0, 0.1), "repetitions": 3, "threads": 2}),
    ])
    def test_given_flags_reach_the_pipeline(self, capsys, tmp_path, monkeypatch,
                                            argv, pipeline, passed):
        calls = self.record_call(monkeypatch, tmp_path, pipeline)
        assert run_cli([*argv, "--seed", "3"]) == 0
        assert calls == [{"seed": 3, **passed}]


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
