"""Study pipelines: check outcomes, frozen canonical-seed values, table
schemas, and determinism across runs and worker counts."""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ramsey_sensing import experiments
from ramsey_sensing.estimators import STATUS, invert_frequency_separation
from ramsey_sensing.experiments import (
    Check,
    PipelineReport,
    run_experiment_replica,
    run_fidelity_degradation,
    run_fig2,
    run_fig3,
    write_report,
)
from ramsey_sensing.cli import main
from ramsey_sensing.io_utils import format_value, write_csv
from ramsey_sensing.montecarlo import apply_readout_degradation
from ramsey_sensing.sensor import SensorModel
from ramsey_sensing.streams import derive_stream

TWO_PI = 2 * math.pi

# canonical seeds; the frozen values below were measured once and pinned
REPLICA_SEED = 7
FIG3_SEED = 42

REPLICA_GMIN_HZ = 316.2277660168379
REPLICA_GMIN_EXCESS_HZ = 999.9999999999999
REPLICA_GMIN_ANALYTIC_HZ = 293.5471862857504


def check_named(report, name):
    """The one check of report with this name."""
    (check,) = [c for c in report.checks if c.name == name]
    return check


def gmin_summary(report):
    """The replica's gmin_summary table as {variant: (gmin_hz, resolved)}."""
    table = report.tables["gmin_summary"]
    return dict(zip(table["variant"], zip(table["gmin_hz"], table["resolved"])))


def written_bytes(out_dir):
    """The bytes of every file a written report holds, by file name."""
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


@pytest.fixture(scope="module")
def fig2_report():
    return run_fig2()


@pytest.fixture(scope="module")
def fig3_report():
    return run_fig3(FIG3_SEED)


@pytest.fixture(scope="module")
def replica_report():
    return run_experiment_replica(REPLICA_SEED)


@pytest.fixture(scope="module")
def degrade_report():
    return run_fidelity_degradation(REPLICA_SEED)


@pytest.fixture(scope="module")
def replica_unit_excess_report():
    return run_experiment_replica(REPLICA_SEED, excess_factor=1.0)


class TestFig2:
    def test_all_checks_pass(self, fig2_report):
        failed = [c.name for c in fig2_report.checks if not c.passed]
        assert failed == []

    def test_expected_check_set(self, fig2_report):
        names = {c.name for c in fig2_report.checks}
        assert names == {
            "constant_half_fidelity_ratio",
            "constant_half_fidelity_sensors",
            "constant_unity_ratio",
            "constant_unity_sensors",
            "variance_unity_ratio",
            "variance_unity_sensors",
            "variance_small_f_slope",
        }

    def test_constant_ratio_is_inverse_fidelity(self, fig2_report):
        table = fig2_report.tables["sensitivity_ratio"]
        for scenario, fidelity, ratio in zip(
                table["scenario"], table["fidelity"], table["gmin_over_unity"]):
            if scenario == "constant":
                assert_allclose(ratio, 1.0 / fidelity, rtol=1e-12)

    def test_half_fidelity_needs_four_sensors(self, fig2_report):
        table = fig2_report.tables["compensation"]
        m = next(m for scenario, f, m in zip(table["scenario"], table["fidelity"],
                                             table["m_sensors"])
                 if scenario == "constant" and f == 0.5)
        assert m == 4

    def test_sensor_counts_are_positive_integers(self, fig2_report):
        m_sensors = fig2_report.tables["compensation"]["m_sensors"]
        assert all(isinstance(m, int) and m >= 1 for m in m_sensors)


class TestFig3:
    def test_all_checks_pass(self, fig3_report):
        failed = [c.name for c in fig3_report.checks if not c.passed]
        assert failed == []

    def test_expected_check_set(self, fig3_report):
        names = {c.name for c in fig3_report.checks}
        assert names == {
            "snr_local_maxima_at_period_multiples",
            "snr_global_max_location",
            "snr_mc_concordance",
            "constant_fidelity_slope",
            "variance_fidelity_slope",
            "continuous_two_tone_fidelity_slope",
            "intermittent_slope_near_unity_steeper",
            "m_ex_unity_flat",
            "m_ex_low_f_slope",
        }

    def test_snr_table_shapes(self, fig3_report):
        fine = fig3_report.tables["fig3a_snr"]
        coarse = fig3_report.tables["fig3a_snr_mc"]
        assert len(fine["t_i_s"]) == len(fine["snr"]) == 600
        assert len(coarse["t_i_s"]) == len(coarse["snr"]) == 120

    def test_global_snr_maximum_location(self, fig3_report):
        fine = fig3_report.tables["fig3a_snr"]
        t_star, _ = max(zip(fine["t_i_s"], fine["snr"]), key=lambda row: row[1])
        assert t_star == pytest.approx(12.0e-3, rel=1e-9)

    def test_gmin_panel_covers_four_scenarios(self, fig3_report):
        # panels (b) and (c) both hold the four scenarios' 51 fidelities
        for panel in ("fig3b_gmin_vs_fidelity", "fig3c_compensation"):
            table = fig3_report.tables[panel]
            by_scenario = {}
            for scenario, fidelity in zip(table["scenario"], table["fidelity"]):
                by_scenario.setdefault(scenario, []).append(fidelity)
            assert list(by_scenario) == [
                "constant", "variance", "continuous_two_tone", "intermittent"], panel
            assert all(len(v) == 51 for v in by_scenario.values()), panel
        table = fig3_report.tables["fig3c_compensation"]
        assert table["m_sensors"] == [math.ceil(m) for m in table["m_threshold"]]

    @pytest.mark.parametrize("fig2_table, fig3_table", [
        ("sensitivity_ratio", "fig3b_gmin_vs_fidelity"),
        ("compensation", "fig3c_compensation"),
    ])
    def test_fig2_tables_are_fig3s_constant_and_variance_rows(
            self, fig2_report, fig3_report, fig2_table, fig3_table):
        # both studies solve N = 1000, M = 1 and T2 = 10 ms on one fidelity grid
        fig2, fig3 = fig2_report.tables[fig2_table], fig3_report.tables[fig3_table]
        rows = [i for i, scenario in enumerate(fig3["scenario"])
                if scenario in ("constant", "variance")]
        assert list(fig3) == list(fig2)
        assert {name: [column[i] for i in rows] for name, column in fig3.items()} == fig2

    def test_excess_sensor_panel_fidelities(self, fig3_report):
        fidelity = fig3_report.tables["fig3d_excess_sensors"]["fidelity"]
        assert set(fidelity) == {1.0, 0.9997, 0.2}
        assert len(fidelity) == 90

    def test_worker_count_does_not_change_results(self, fig3_report):
        threaded = run_fig3(FIG3_SEED, threads=4)
        assert threaded.tables == fig3_report.tables
        assert threaded.checks == fig3_report.checks


class TestReplica:
    def test_all_checks_pass(self, replica_report):
        failed = [c.name for c in replica_report.checks if not c.passed]
        assert failed == []

    def test_frozen_gmin_summary(self, replica_report):
        summary = gmin_summary(replica_report)
        assert summary["qpn_limited"][1] is True
        assert_allclose(summary["qpn_limited"][0], REPLICA_GMIN_HZ, rtol=1e-12)
        assert_allclose(summary["with_excess"][0], REPLICA_GMIN_EXCESS_HZ, rtol=1e-12)
        assert_allclose(summary["analytic"][0], REPLICA_GMIN_ANALYTIC_HZ, rtol=1e-12)

    def test_rerun_is_identical(self, replica_report, tmp_path):
        write_report(replica_report, tmp_path / "first")
        write_report(run_experiment_replica(REPLICA_SEED), tmp_path / "again")
        assert written_bytes(tmp_path / "again") == written_bytes(tmp_path / "first")

    def test_workers_estimate_disjoint_grid_points(self, replica_report, tmp_path):
        # more workers than cores, switching threads as often as possible
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_experiment_replica(REPLICA_SEED, threads=8)
        finally:
            sys.setswitchinterval(interval)
        write_report(replica_report, tmp_path / "serial")
        write_report(threaded, tmp_path / "threaded")
        assert written_bytes(tmp_path / "threaded") == written_bytes(tmp_path / "serial")

    def test_population_table_shape_and_domain(self, replica_report):
        table = replica_report.tables["population"]
        assert all(len(column) == 22 * 11 for column in table.values())
        assert all(0.0 <= p <= 1.0 for p in table["p_hat"])
        assert table["g_applied_hz"][0] == 0.0  # scan starts at the baseline point

    def test_estimate_statuses_are_known_tokens(self, replica_report):
        for name in ("estimates", "estimates_qpn_limited"):
            table = replica_report.tables[name]
            assert all(len(column) == 22 * 11 for column in table.values())
            assert set(table["status"]) <= {"defined", "below_baseline", "out_of_domain"}

    def test_parameter_echo(self, replica_report):
        p = replica_report.parameters
        assert p["omega_s_hz"] == pytest.approx(2000.0, rel=1e-12)
        assert p["sigma_hz"] == pytest.approx(275.0, rel=1e-12)
        assert p["n_shots"] == 1000 and p["m_sensors"] == 1
        assert p["repetitions"] == 11
        assert p["excess_factor"] == 1.17
        assert p["contrast_t1"] == 0.903

    def test_unit_excess_factor_skips_the_ordering_check(self, replica_unit_excess_report):
        report = replica_unit_excess_report
        names = {c.name for c in report.checks}
        assert "gmin_excess_geq_qpn" not in names
        summary = gmin_summary(report)
        # with no excess noise both scans are the same data
        assert summary["with_excess"][0] == summary["qpn_limited"][0]

    @pytest.mark.parametrize("factor", [math.nan, 0.5, 1e160])
    def test_rejects_a_bad_excess_factor_before_simulating(self, monkeypatch, factor):
        def no_tables(*args, **kwargs):
            raise AssertionError("simulated a table before checking the inputs")

        monkeypatch.setattr(experiments, "_replica_block", no_tables)
        with pytest.raises(ValueError, match="excess_factor"):
            run_experiment_replica(REPLICA_SEED, excess_factor=factor)


class TestDegradation:
    def test_all_checks_pass(self, degrade_report):
        failed = [c.name for c in degrade_report.checks if not c.passed]
        assert failed == []

    def test_frozen_residual_comparison(self, degrade_report):
        check = check_named(degrade_report, "burst_scaling_beats_sqrt")
        assert_allclose(check.measured, 3446.926233354282, rtol=1e-9)
        assert_allclose(check.expected, 33276.69186956354, rtol=1e-9)
        assert check.measured < check.expected

    def test_zero_flip_row_reproduces_the_replica(self, degrade_report):
        table = degrade_report.tables["degradation"]
        base = table["flip_prob"].index(0.0)
        assert_allclose(table["gmin_hz"][base], REPLICA_GMIN_HZ, rtol=1e-12)
        assert table["resolved"][base] is True

    def test_zero_flip_estimates_extend_the_replica(self, degrade_report, replica_report):
        # repetitions 0..10 of the flip=0 scan are the replica's tables
        deg = degrade_report.tables["estimates_degraded"]
        subset = (deg["flip_prob"] == 0.0) & (deg["rep_index"] < 11)
        replica = replica_report.tables["estimates_qpn_limited"]
        assert list(deg)[1:] == list(replica)
        for name, column in replica.items():
            assert_array_equal(deg[name][subset], column)

    def test_effective_fidelity_follows_the_flip_mixture(self, degrade_report):
        table = degrade_report.tables["degradation"]
        f0 = table["f_eff_expected"][0]
        for flip, expected, measured, sigma in zip(
                table["flip_prob"], table["f_eff_expected"], table["f_eff_measured"],
                table["f_eff_sigma"]):
            assert_allclose(expected, (1.0 - 2.0 * flip) * f0, rtol=1e-12)
            assert abs(measured - expected) <= 3.0 * sigma

    def test_row_counts(self, degrade_report):
        deg = degrade_report.tables["degradation"]
        est = degrade_report.tables["estimates_degraded"]
        assert all(len(column) == 5 for column in deg.values())
        assert all(len(column) == 5 * 22 * 44 for column in est.values())

    def test_one_stream_per_table_and_drawing_flip(self, monkeypatch):
        # one stream per simulated table, then one per grid point at each
        # flip > 0; a shaped call derives the key (*path, *index) of every index
        paths = []

        def counting(seed, *path, shape=None):
            paths.extend([path] if shape is None else
                         [path + index for index in np.ndindex(shape)])
            return derive_stream(seed, *path, shape=shape)

        monkeypatch.setattr(experiments, "derive_stream", counting)
        run_fidelity_degradation(REPLICA_SEED, (0.0, 0.1), repetitions=2)
        assert len(paths) == 22 * 2 + 22
        assert sorted(p for p in paths if p[0] == 5) == [(5, 1, gi) for gi in range(22)]

    def test_estimates_equal_the_whole_stack_composition(self):
        # the reference counts each grid point's block, flips each count
        # with two scalar binomials from its point's stream, (flip index,
        # grid point), and inverts the p_hat table
        seed, flips, reps = 11, (0.0, 0.05, 0.3), 3
        n = experiments.REPLICA_PARAMS["n_shots"]
        base = np.stack([np.count_nonzero(experiments._replica_block(seed, gi, reps), axis=-1)
                         for gi in range(len(experiments._REPLICA_SPECS))])
        sensor = experiments._REPLICA_SENSOR
        g_hat_hz, status = [], []
        for fi, flip in enumerate(flips):
            excited = base.copy()
            if flip:
                for gi, rng in enumerate(derive_stream(seed, 5, fi, shape=(len(base),))):
                    for r, k in enumerate(base[gi].tolist()):
                        excited[gi, r] = k - rng.binomial(k, flip) + rng.binomial(n - k, flip)
            sensor_eff = SensorModel((1.0 - 2.0 * flip) * experiments.REPLICA_PARAMS["fidelity"],
                                     sensor.t2, sensor.theta)
            g_hat, reason = invert_frequency_separation(
                excited / n, sensor_eff, experiments._REPLICA_SPECS[0])
            g_hat_hz.append((g_hat / TWO_PI).ravel())
            status.append(np.array(STATUS)[reason.ravel()])
        table = run_fidelity_degradation(seed, flips, repetitions=reps).tables[
            "estimates_degraded"]
        assert_array_equal(table["g_hat_hz"], np.concatenate(g_hat_hz), strict=True)
        assert_array_equal(table["status"], np.concatenate(status), strict=True)

    def test_every_flip_sees_one_points_block(self, monkeypatch):
        # each flip > 0 takes one grid point's excited counts per call
        calls = []

        def recording(excited, n_shots, flip_prob, rng):
            calls.append((np.shape(excited), n_shots, flip_prob))
            return apply_readout_degradation(excited, n_shots, flip_prob, rng)

        monkeypatch.setattr(experiments, "apply_readout_degradation", recording)
        run_fidelity_degradation(REPLICA_SEED, (0.0, 0.1), repetitions=4)
        assert calls == [((4,), 1000, 0.1)] * 22

    def test_peak_memory_stays_below_one_table_stack(self):
        # each point's block is flipped and counted alone, so no (grid, reps, N)
        # stack of outcomes is ever held, let alone a flipped copy of one
        reps = 176
        stack_bytes = len(experiments._REPLICA_SPECS) * reps * 1000
        tracemalloc.start()
        try:
            run_fidelity_degradation(11, (0.0, 0.1), repetitions=reps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes

    def test_replica_peak_memory_stays_below_two_table_stacks(self):
        # each point's block is estimated in its own task, so no (grid, reps, N)
        # stack of outcomes is held: one of bools would alone take stack_bytes
        stack_bytes = len(experiments._REPLICA_SPECS) * 11 * 1000
        tracemalloc.start()
        try:
            run_experiment_replica(REPLICA_SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * stack_bytes

    def test_workers_count_disjoint_grid_points(self, tmp_path):
        # more workers than cores, switching threads as often as possible
        serial = run_fidelity_degradation(REPLICA_SEED, (0.0, 0.1, 0.2), repetitions=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_fidelity_degradation(REPLICA_SEED, (0.0, 0.1, 0.2), repetitions=3,
                                                threads=8)
        finally:
            sys.setswitchinterval(interval)
        write_report(serial, tmp_path / "serial")
        write_report(threaded, tmp_path / "threaded")
        assert written_bytes(tmp_path / "threaded") == written_bytes(tmp_path / "serial")

    def test_default_grid_needs_four_resolved_rows(self, degrade_report):
        # a grid of fewer than four flips needs every row (tests/test_cli.py)
        check = check_named(degrade_report, "gmin_resolved_rows")
        assert (check.passed, check.expected) == (True, 4)

    def test_negative_zero_flip_is_the_zero_anchor(self):
        report = run_fidelity_degradation(REPLICA_SEED, (0.1, -0.0), repetitions=2)
        for flip in (report.tables["degradation"]["flip_prob"][0],
                     report.parameters["flip_grid"][0],
                     report.tables["estimates_degraded"]["flip_prob"][0]):
            assert flip == 0.0 and math.copysign(1.0, flip) == 1.0

    def test_rejects_flip_probabilities_at_or_above_half(self):
        with pytest.raises(ValueError):
            run_fidelity_degradation(REPLICA_SEED, flip_grid=(0.0, 0.5))

    def test_rejects_an_empty_flip_grid(self):
        with pytest.raises(ValueError, match="at least one"):
            run_fidelity_degradation(REPLICA_SEED, ())

    @pytest.fixture
    def no_shots(self, monkeypatch):
        def no_shots(*args, **kwargs):
            raise AssertionError("simulated a table before checking the inputs")

        monkeypatch.setattr(experiments, "simulate_shots", no_shots)

    @pytest.mark.parametrize("flips", [(0.0, 0.1, 0.1), (0.0, 0.0)])
    def test_rejects_repeated_flip_probabilities_before_simulating(self, no_shots, flips):
        with pytest.raises(ValueError, match="must not repeat"):
            run_fidelity_degradation(REPLICA_SEED, flips, repetitions=2)

    @pytest.mark.parametrize("flips", [(0.1, 0.2), (0.05,)])
    def test_rejects_a_flip_grid_without_zero_before_simulating(self, no_shots, flips):
        # the 1/sqrt(F) comparison curve is anchored at the flip = 0 row
        with pytest.raises(ValueError, match="must hold 0.0"):
            run_fidelity_degradation(REPLICA_SEED, flips, repetitions=2)

    @pytest.mark.parametrize("reps", [0, 1, -3, 2.5, True])
    def test_rejects_too_few_repetitions_before_simulating(self, no_shots, reps):
        with pytest.raises(ValueError, match="repetitions must be an integer"):
            run_fidelity_degradation(REPLICA_SEED, repetitions=reps)


class TestEstimateTableBytes:
    # sha256 of the per-repetition estimate tables of the canonical seed;
    # they pin every g_hat bit and every exclusion code
    SHA256 = {
        ("replica", "estimates.csv"):
            "1f6e0bdfc33ee2d5dbcfec5d7063cb5e62f49cf303b3b3cac6a24116abf85195",
        ("replica", "estimates_qpn_limited.csv"):
            "154ee297d1f93b22d296691ec3cc9e0ee28c30fae7491b92b017759988ce5866",
        ("degrade", "estimates_degraded.csv"):
            "7f15128596f9c6c9d28430b08efa5593575288beded194d9c9972bca2802686f",
    }

    def test_written_estimate_tables_are_pinned(self, replica_report, degrade_report, tmp_path):
        write_report(replica_report, tmp_path / "replica")
        write_report(degrade_report, tmp_path / "degrade")
        digests = {key: hashlib.sha256((tmp_path / key[0] / key[1]).read_bytes()).hexdigest()
                   for key in self.SHA256}
        assert digests == self.SHA256

    # sha256 of the canonical seed's Monte-Carlo SNR panel: it pins every
    # count the single-sensor shot engine decides
    FIG3_MC_SHA256 = "bdc14cfe3be3317cc9f6e333e810c853f5650e1d8e27c84ab3343a8be71808ec"

    def test_written_monte_carlo_snr_table_is_pinned(self, fig3_report, tmp_path):
        write_report(fig3_report, tmp_path)
        digest = hashlib.sha256((tmp_path / "fig3a_snr_mc.csv").read_bytes()).hexdigest()
        assert digest == self.FIG3_MC_SHA256


class TestOutputBytes:
    # the first 16 hex digits of the sha256 of a written report's files,
    # concatenated in sorted-name order as `cat DIR/* | sha256sum` reads them;
    # they pin every byte each pipeline and `simulate` write
    SIMULATE = {
        "simulate_m1": ["--scenario", "intermittent", "--g-hz", "120", "--omega-s-hz", "2000",
                        "--sigma-hz", "275", "--fidelity", "0.95", "--t2", "7.97e-3",
                        "--ti", "5e-4", "--n", "2000", "--m", "1", "--seed", "3"],
        "simulate_m5": ["--scenario", "constant", "--g-hz", "120", "--fidelity", "0.95",
                        "--t2", "7.97e-3", "--ti", "5e-4", "--n", "2000", "--m", "5",
                        "--seed", "3"],
    }

    @pytest.mark.parametrize("case, sha16", [
        ("fig2", "bebb563aee7a0a76"),
        ("fig3", "e01ad6c61eec0ce4"),
        ("replica", "49f318ee6098d63e"),
        ("degrade", "4fac2a696b776fc3"),
        ("replica_unit_excess", "73fd16376898d03c"),
        ("simulate_m1", "b905fe6a13c12fcf"),
        ("simulate_m5", "11846ddfe1580b65"),
    ])
    def test_written_bytes_are_pinned(self, request, capsys, tmp_path, case, sha16):
        if case in self.SIMULATE:
            assert main(["simulate", *self.SIMULATE[case], "--out", str(tmp_path)]) == 0
        else:
            write_report(request.getfixturevalue(f"{case}_report"), tmp_path)
        digest = hashlib.sha256(b"".join(
            path.read_bytes() for path in sorted(tmp_path.iterdir())))
        assert digest.hexdigest()[:16] == sha16


class TestReportPlumbing:
    def _tiny_report(self):
        report = PipelineReport("demo", seed=3, parameters={"alpha": 1.5})
        report.tables["numbers"] = {"x": [1, 2], "y": [2.5, -0.125]}
        report.checks.append(Check("first", True, 1.0, 1.0, 0.1, note="n"))
        return report

    def test_written_bytes_are_stable(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_report(self._tiny_report(), a)
        write_report(self._tiny_report(), b)
        for name in ("numbers.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_structure(self, tmp_path):
        out = tmp_path / "r"
        write_report(self._tiny_report(), out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pipeline_id"] == "demo"
        assert manifest["seed"] == 3
        assert manifest["parameters"] == {"alpha": 1.5}
        assert manifest["tables"] == ["numbers.csv"]
        (check,) = manifest["checks"]
        assert set(check) == {"name", "passed", "measured", "expected", "tolerance", "note"}

    def test_csv_dialect(self, tmp_path):
        out = tmp_path / "r"
        write_report(self._tiny_report(), out)
        text = (out / "numbers.csv").read_bytes().decode()
        assert text == "x,y\n1,2.5\n2,-0.125\n"

    @pytest.mark.parametrize("value, text", [
        (True, "true"), (np.bool_(False), "false"), (0.1, "0.1"), (np.float64(1e16), "1e+16"),
        (np.float32(0.1), repr(float(np.float32(0.1)))), (-3, "-3"), (np.int64(7), "7"),
        ("defined", "defined"), (np.str_("x"), "x"), (math.nan, ""),
        (np.float64("nan"), ""), (math.inf, "inf"),
    ])
    def test_cells_render_by_native_type(self, value, text):
        assert format_value(value) == text

    def test_columns_render_by_dtype_kind(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, {
            "b": np.array([True, False]),
            "f": [1e16, -0.125],
            "f32": np.array([0.1, 2.0], dtype=np.float32),
            "i": np.array([-3, 7]),
            "u": np.array([0, 2**64 - 1], dtype=np.uint64),
            "s": ["defined", "x"],
        })
        assert path.read_text() == (
            "b,f,f32,i,u,s\n"
            f"true,1e+16,{format_value(np.float32(0.1))},-3,0,defined\n"
            "false,-0.125,2.0,7,18446744073709551615,x\n")

    def test_nan_writes_an_empty_cell(self, tmp_path):
        # long enough that the writer formats it in more than one block
        g_hat = np.arange(3000) / 8
        g_hat[[0, 1500, 2999]] = math.nan
        path = tmp_path / "t.csv"
        write_csv(path, {"g_hat_hz": g_hat, "rep_index": np.arange(3000)})
        lines = path.read_text().split("\n")
        assert lines[0] == "g_hat_hz,rep_index" and lines[-1] == ""
        assert lines[1:-1] == [
            f"{'' if math.isnan(g) else repr(g)},{i}" for i, g in enumerate(g_hat.tolist())]
        assert lines[1501] == ",1500"

    def test_zero_row_table_writes_its_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, {"x": np.array([], dtype=np.int64), "y": []})
        assert path.read_text() == "x,y\n"

    @pytest.mark.parametrize("table", [
        {"x": np.zeros((2, 2))},
        {"x": [1.0, None]},
        {"x": np.array([1 + 2j, 3j])},
        {"x": [1, 2], "y": [1.0]},
    ], ids=["2d", "object-with-none", "complex", "unequal-lengths"])
    def test_rejected_columns(self, tmp_path, table):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_csv(path, table)
        assert not path.exists()

    def test_all_passed(self):
        report = self._tiny_report()
        assert report.all_passed()
        report.checks.append(Check("second", False, 0.0, 1.0, 0.0))
        assert not report.all_passed()


@pytest.mark.parametrize("threads", [0, -3, 2.5, "2", True])
@pytest.mark.parametrize("run", [
    lambda threads: run_fig3(FIG3_SEED, threads=threads, mc_shots=10),
    lambda threads: run_experiment_replica(REPLICA_SEED, threads=threads),
    lambda threads: run_fidelity_degradation(REPLICA_SEED, repetitions=2, threads=threads),
], ids=["fig3", "replica", "degrade"])
def test_threads_must_be_an_integer_of_at_least_one(run, threads):
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        run(threads)
