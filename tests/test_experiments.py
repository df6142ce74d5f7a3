"""Study pipelines: check outcomes, frozen canonical-seed values, table
schemas, and determinism across runs and worker counts."""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ramsey_sensing import experiments
from ramsey_sensing.experiments import (
    Check,
    PipelineReport,
    run_experiment_replica,
    run_fidelity_degradation,
    run_fig2,
    run_fig3,
    write_report,
)
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
        _, rows = fig2_report.tables["sensitivity_ratio"]
        for scenario, fidelity, _, _, ratio in rows:
            if scenario == "constant":
                assert_allclose(ratio, 1.0 / fidelity, rtol=1e-12)

    def test_half_fidelity_needs_four_sensors(self, fig2_report):
        _, rows = fig2_report.tables["compensation"]
        row = next(r for r in rows if r[0] == "constant" and r[1] == 0.5)
        assert row[2] == 4

    def test_sensor_counts_are_positive_integers(self, fig2_report):
        _, rows = fig2_report.tables["compensation"]
        assert all(isinstance(r[2], int) and r[2] >= 1 for r in rows)


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
        _, fine = fig3_report.tables["fig3a_snr"]
        _, coarse = fig3_report.tables["fig3a_snr_mc"]
        assert len(fine) == 600
        assert len(coarse) == 120

    def test_global_snr_maximum_location(self, fig3_report):
        _, fine = fig3_report.tables["fig3a_snr"]
        t_star, _ = max(fine, key=lambda row: row[1])
        assert t_star == pytest.approx(12.0e-3, rel=1e-9)

    def test_gmin_panel_covers_four_scenarios(self, fig3_report):
        _, rows = fig3_report.tables["fig3b_gmin_vs_fidelity"]
        by_scenario = {}
        for scenario, fidelity, *_ in rows:
            by_scenario.setdefault(scenario, []).append(fidelity)
        assert set(by_scenario) == {
            "constant", "variance", "continuous_two_tone", "intermittent"}
        assert all(len(v) == 51 for v in by_scenario.values())

    def test_excess_sensor_panel_fidelities(self, fig3_report):
        _, rows = fig3_report.tables["fig3d_excess_sensors"]
        fidelities = {row[0] for row in rows}
        assert fidelities == {1.0, 0.9997, 0.2}
        assert len(rows) == 90

    def test_worker_count_does_not_change_results(self, fig3_report):
        threaded = run_fig3(FIG3_SEED, threads=4)
        assert threaded.tables == fig3_report.tables
        assert threaded.checks == fig3_report.checks


class TestReplica:
    def test_all_checks_pass(self, replica_report):
        failed = [c.name for c in replica_report.checks if not c.passed]
        assert failed == []

    def test_frozen_gmin_summary(self, replica_report):
        _, rows = replica_report.tables["gmin_summary"]
        summary = {variant: (gmin_hz, resolved) for variant, gmin_hz, resolved in rows}
        assert summary["qpn_limited"][1] is True
        assert_allclose(summary["qpn_limited"][0], REPLICA_GMIN_HZ, rtol=1e-12)
        assert_allclose(summary["with_excess"][0], REPLICA_GMIN_EXCESS_HZ, rtol=1e-12)
        assert_allclose(summary["analytic"][0], REPLICA_GMIN_ANALYTIC_HZ, rtol=1e-12)

    def test_rerun_is_identical(self, replica_report):
        again = run_experiment_replica(REPLICA_SEED)
        assert again.tables == replica_report.tables

    def test_population_table_shape_and_domain(self, replica_report):
        _, rows = replica_report.tables["population"]
        assert len(rows) == 22 * 11
        assert all(0.0 <= r[2] <= 1.0 for r in rows)
        assert rows[0][0] == 0.0  # scan starts at the baseline point

    def test_estimate_statuses_are_known_tokens(self, replica_report):
        for table in ("estimates", "estimates_qpn_limited"):
            _, rows = replica_report.tables[table]
            assert len(rows) == 22 * 11
            assert {r[2] for r in rows} <= {"defined", "below_baseline", "out_of_domain"}

    def test_parameter_echo(self, replica_report):
        p = replica_report.parameters
        assert p["omega_s_hz"] == pytest.approx(2000.0, rel=1e-12)
        assert p["sigma_hz"] == pytest.approx(275.0, rel=1e-12)
        assert p["n_shots"] == 1000 and p["m_sensors"] == 1
        assert p["repetitions"] == 11
        assert p["excess_factor"] == 1.17
        assert p["contrast_t1"] == 0.903

    def test_unit_excess_factor_skips_the_ordering_check(self):
        report = run_experiment_replica(REPLICA_SEED, excess_factor=1.0)
        names = {c.name for c in report.checks}
        assert "gmin_excess_geq_qpn" not in names
        _, rows = report.tables["gmin_summary"]
        summary = dict((v, g) for v, g, _ in rows)
        # with no excess noise both scans are the same data
        assert summary["with_excess"] == summary["qpn_limited"]


class TestDegradation:
    def test_all_checks_pass(self, degrade_report):
        failed = [c.name for c in degrade_report.checks if not c.passed]
        assert failed == []

    def test_frozen_residual_comparison(self, degrade_report):
        check = check_named(degrade_report, "burst_scaling_beats_sqrt")
        assert_allclose(check.measured, 403134.55634257506, rtol=1e-9)
        assert_allclose(check.expected, 668075.7440206879, rtol=1e-9)
        assert check.measured < check.expected

    def test_zero_flip_row_reproduces_the_replica(self, degrade_report):
        _, rows = degrade_report.tables["degradation"]
        base = next(r for r in rows if r[0] == 0.0)
        assert_allclose(base[5], REPLICA_GMIN_HZ, rtol=1e-12)
        assert base[6] is True

    def test_zero_flip_estimates_extend_the_replica(self, degrade_report, replica_report):
        # repetitions 0..10 of the flip=0 scan are the replica's tables
        _, deg_rows = degrade_report.tables["estimates_degraded"]
        subset = [r[1:] for r in deg_rows if r[0] == 0.0 and r[2] < 11]
        _, replica_rows = replica_report.tables["estimates_qpn_limited"]
        assert subset == replica_rows

    def test_effective_fidelity_follows_the_flip_mixture(self, degrade_report):
        _, rows = degrade_report.tables["degradation"]
        f0 = rows[0][1]
        for r in rows:
            assert_allclose(r[1], (1.0 - 2.0 * r[0]) * f0, rtol=1e-12)
            assert abs(r[2] - r[1]) <= 3.0 * r[3]

    def test_row_counts(self, degrade_report):
        _, deg_rows = degrade_report.tables["degradation"]
        _, est_rows = degrade_report.tables["estimates_degraded"]
        assert len(deg_rows) == 5
        assert len(est_rows) == 5 * 22 * 44

    def test_workers_fill_disjoint_rows_of_the_table_stack(self):
        # more workers than cores, switching threads as often as possible
        specs, _, serial = experiments._simulate_replica_tables(REPLICA_SEED, 3, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, _, threaded = experiments._simulate_replica_tables(REPLICA_SEED, 3, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert serial.shape == (len(specs), 3, 1000) and serial.dtype == bool
        assert np.array_equal(threaded, serial)

    def test_one_stream_per_table_and_drawing_flip(self, monkeypatch):
        # one stream per simulated table, then one per table at each flip > 0
        paths = []

        def counting(seed, *path):
            paths.append(path)
            return derive_stream(seed, *path)

        monkeypatch.setattr(experiments, "derive_stream", counting)
        run_fidelity_degradation(REPLICA_SEED, (0.0, 0.1), repetitions=2)
        tables = 22 * 2
        assert len(paths) == 2 * tables
        assert sorted(p for p in paths if p[0] == 5) == [
            (5, 1, gi, rep) for gi in range(22) for rep in range(2)]

    def test_default_grid_needs_four_resolved_rows(self, degrade_report):
        # a grid of fewer than four flips needs every row (tests/test_cli.py)
        check = check_named(degrade_report, "gmin_resolved_rows")
        assert (check.passed, check.expected) == (True, 4)

    def test_negative_zero_flip_is_the_zero_anchor(self):
        report = run_fidelity_degradation(REPLICA_SEED, (0.1, -0.0), repetitions=2)
        _, rows = report.tables["degradation"]
        _, est_rows = report.tables["estimates_degraded"]
        for flip in (rows[0][0], report.parameters["flip_grid"][0], est_rows[0][0]):
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

    @pytest.mark.parametrize("reps", [0, 1, -3, 2.5])
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
            "4da8ee1d28296c603ead72e72f79eae01a489bfdac9f65ea77c5acbf6354f251",
    }

    def test_written_estimate_tables_are_pinned(self, replica_report, degrade_report, tmp_path):
        write_report(replica_report, tmp_path / "replica")
        write_report(degrade_report, tmp_path / "degrade")
        digests = {key: hashlib.sha256((tmp_path / key[0] / key[1]).read_bytes()).hexdigest()
                   for key in self.SHA256}
        assert digests == self.SHA256


class TestReportPlumbing:
    def _tiny_report(self):
        report = PipelineReport("demo", seed=3, parameters={"alpha": 1.5})
        report.tables["numbers"] = (("x", "y"), [(1, 2.5), (2, -0.125)])
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
