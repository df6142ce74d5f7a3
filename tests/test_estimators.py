"""The frequency-separation estimator, the exclusion rule, and the
empirical detection-threshold scan.

Round-trips drive the estimator with noise-free model populations; every
defined estimate must then reproduce the applied parameter to float
precision.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ramsey_sensing.estimators import (
    BiasScan,
    EstimateOutcome,
    ExclusionReason,
    bias_scan_rows,
    empirical_gmin,
    estimate_frequency_separation,
)
from ramsey_sensing.io_utils import write_csv
from ramsey_sensing.sensor import SensorModel, contrast, mean_population
from ramsey_sensing.signals import IntermittentTwoTone, ToneConvention, small_g_curvature

TWO_PI = 2 * math.pi


class TestEstimateOutcome:
    def test_exactly_one_of_defined_or_excluded(self):
        assert EstimateOutcome.of(1.0).defined
        assert not EstimateOutcome.excluded(ExclusionReason.OUT_OF_DOMAIN).defined
        with pytest.raises(ValueError):
            EstimateOutcome(g_hat=1.0, reason=ExclusionReason.OUT_OF_DOMAIN)
        with pytest.raises(ValueError):
            EstimateOutcome()


class TestFrequencySeparationEstimator:
    SENSOR = SensorModel(0.9047787237550715, 7.97e-3)
    SPEC = IntermittentTwoTone(TWO_PI * 2000, 0.0, TWO_PI * 275, 0.5e-3)

    def _spec(self, g: float) -> IntermittentTwoTone:
        return IntermittentTwoTone(self.SPEC.omega_s, g, self.SPEC.sigma, self.SPEC.t_sig)

    def test_small_separation_round_trip(self):
        # the inversion assumes the small-g kernel, so drive it with the
        # kernel model rather than the full two-tone response
        kappa = small_g_curvature(self.SPEC.omega_s, self.SPEC.sigma, ToneConvention.FULL_SPLIT)
        c = contrast(self.SENSOR, self.SPEC.period)
        for g_hz in (20.0, 80.0, 300.0):
            g = TWO_PI * g_hz
            p = 0.5 * (1 - c * math.exp(-kappa * g * g))
            out = estimate_frequency_separation(p, self.SENSOR, self._spec(g))
            assert_allclose(out.g_hat, g, rtol=1e-10)

    def test_full_physics_bias_is_small_at_moderate_separation(self):
        # against the exact two-tone response the quadratic inversion is
        # biased low, by under 1% at 300 Hz for these parameters
        g = TWO_PI * 300.0
        p = mean_population(self._spec(g), self.SENSOR, self.SPEC.period)
        out = estimate_frequency_separation(p, self.SENSOR, self._spec(g))
        assert out.defined
        assert 0.99 < out.g_hat / g < 1.0

    def test_baseline_population_maps_to_zero(self):
        c = contrast(self.SENSOR, self.SPEC.period)
        baseline = (1.0 - c) / 2.0
        out = estimate_frequency_separation(baseline, self.SENSOR, self.SPEC)
        assert out.defined and out.g_hat == 0.0

    def test_exclusion_reasons(self):
        c = contrast(self.SENSOR, self.SPEC.period)
        baseline = (1.0 - c) / 2.0
        below = estimate_frequency_separation(baseline * 0.5, self.SENSOR, self.SPEC)
        assert below.reason is ExclusionReason.BELOW_BASELINE
        for p in (0.5, 0.73, 1.0):
            out = estimate_frequency_separation(p, self.SENSOR, self.SPEC)
            assert out.reason is ExclusionReason.OUT_OF_DOMAIN

    def test_every_population_yields_an_outcome(self):
        # dense sweep of the full [0, 1] range: exactly one branch, no raise
        c = contrast(self.SENSOR, self.SPEC.period)
        baseline = (1.0 - c) / 2.0
        for p in np.linspace(0.0, 1.0, 10_001):
            out = estimate_frequency_separation(float(p), self.SENSOR, self.SPEC)
            if p < baseline or p >= 0.5:
                assert out.reason is not None
            else:
                assert out.defined
                assert out.g_hat >= 0.0 and math.isfinite(out.g_hat)

    def test_one_ulp_above_baseline_stays_defined(self):
        c = contrast(self.SENSOR, self.SPEC.period)
        p = math.nextafter((1.0 - c) / 2.0, 1.0)
        out = estimate_frequency_separation(p, self.SENSOR, self.SPEC)
        assert out.defined and out.g_hat >= 0.0

    def test_mirrored_bias_round_trip(self):
        # at theta = pi the fringe is inverted: p = (1 + C e^{-kappa g^2})/2
        sensor = SensorModel(self.SENSOR.fidelity, self.SENSOR.t2, theta=math.pi)
        g = TWO_PI * 120.0
        kappa = small_g_curvature(self.SPEC.omega_s, self.SPEC.sigma, ToneConvention.FULL_SPLIT)
        p = 0.5 * (1 + contrast(sensor, self.SPEC.period) * math.exp(-kappa * g * g))
        out = estimate_frequency_separation(p, sensor, self._spec(g))
        assert_allclose(out.g_hat, g, rtol=1e-10)

    def test_mirrored_bias_exclusion_reasons(self):
        sensor = SensorModel(self.SENSOR.fidelity, self.SENSOR.t2, theta=math.pi)
        mirrored_baseline = (1.0 + contrast(sensor, self.SPEC.period)) / 2.0
        above = estimate_frequency_separation(mirrored_baseline + 0.01, sensor, self.SPEC)
        assert above.reason is ExclusionReason.BELOW_BASELINE
        for p in (0.5, 0.27, 0.0):
            out = estimate_frequency_separation(p, sensor, self.SPEC)
            assert out.reason is ExclusionReason.OUT_OF_DOMAIN

    @pytest.mark.parametrize("theta", [0.5, math.pi / 2, -math.pi, 2 * math.pi])
    def test_rejects_other_biases(self, theta):
        sensor = SensorModel(self.SENSOR.fidelity, self.SENSOR.t2, theta=theta)
        with pytest.raises(ValueError, match="theta"):
            estimate_frequency_separation(0.3, sensor, self.SPEC)

    @pytest.mark.parametrize("p_hat", [-1e-12, 1.0 + 1e-12, math.nan])
    def test_rejects_a_population_outside_the_unit_interval(self, p_hat):
        with pytest.raises(ValueError, match="probability"):
            estimate_frequency_separation(p_hat, self.SENSOR, self.SPEC)

    def test_monotone_in_population(self):
        c = contrast(self.SENSOR, self.SPEC.period)
        baseline = (1.0 - c) / 2.0
        ps = np.linspace(baseline + 1e-6, 0.499, 200)
        gs = [
            estimate_frequency_separation(float(p), self.SENSOR, self.SPEC).g_hat
            for p in ps
        ]
        assert all(a < b for a, b in zip(gs, gs[1:]))


TONES = dict(
    omega_s_hz=st.floats(300.0, 3e4),
    sigma_hz=st.floats(1.0, 1e4),
    convention=st.sampled_from(list(ToneConvention)),
)
BIASES = st.sampled_from([0.0, math.pi])


def _burst(omega_s_hz, sigma_hz, convention, g=0.0) -> IntermittentTwoTone:
    omega_s = TWO_PI * omega_s_hz
    return IntermittentTwoTone(omega_s, g, TWO_PI * sigma_hz, TWO_PI / omega_s, convention)


class TestFrequencySeparationProperties:
    @settings(max_examples=300, deadline=None)
    @given(p_hat=st.floats(0.0, 1.0), theta=BIASES, fidelity=st.floats(1e-3, 1.0),
           t2=st.floats(1e-4, 1.0), **TONES)
    def test_total_on_the_unit_interval(self, p_hat, theta, fidelity, t2, omega_s_hz,
                                        sigma_hz, convention):
        # every population gives a finite g_hat >= 0 or an exclusion reason
        out = estimate_frequency_separation(
            p_hat, SensorModel(fidelity, t2, theta),
            _burst(omega_s_hz, sigma_hz, convention))
        if out.defined:
            assert math.isfinite(out.g_hat) and out.g_hat >= 0.0
        else:
            assert isinstance(out.reason, ExclusionReason)

    @settings(max_examples=300, deadline=None)
    @given(log_x=st.floats(-6.0, math.log10(5.0)), theta=BIASES,
           fidelity=st.floats(0.1, 1.0), t2_over_t1=st.floats(1.0, 1e3), **TONES)
    def test_inverts_its_own_model(self, log_x, theta, fidelity, t2_over_t1, omega_s_hz,
                                   sigma_hz, convention):
        # x = kappa g^2 in [1e-6, 5] at contrast C(t1) >= 0.1
        spec = _burst(omega_s_hz, sigma_hz, convention)
        sensor = SensorModel(fidelity, t2_over_t1 * spec.period, theta)
        c = contrast(sensor, spec.period)
        assume(c >= 0.1)
        x = 10.0**log_x
        g = math.sqrt(x / small_g_curvature(spec.omega_s, spec.sigma, convention))
        p = 0.5 * (1.0 - c * math.exp(-x))
        p_hat = p if theta == 0.0 else 1.0 - p
        out = estimate_frequency_separation(
            p_hat, sensor, _burst(omega_s_hz, sigma_hz, convention, g))
        assert out.defined
        assert out.g_hat == pytest.approx(g, rel=1e-8)


def _scan(rows):
    return BiasScan(tuple((g, tuple(reps)) for g, reps in rows))


def _defined_row(g, values):
    return (g, [EstimateOutcome.of(v) for v in values])


class TestBiasScanValidation:
    def test_applied_values_strictly_increasing(self):
        with pytest.raises(ValueError):
            _scan([_defined_row(2.0, [2.0, 2.0]), _defined_row(1.0, [1.0, 1.0])])

    def test_minimum_repetitions(self):
        with pytest.raises(ValueError):
            _scan([(1.0, (EstimateOutcome.of(1.0),))])


class TestEmpiricalGmin:
    GRID = [10.0, 20.0, 40.0, 80.0, 160.0]

    def _clean_scan(self):
        return _scan([_defined_row(g, [g, g * 1.01, g * 0.99]) for g in self.GRID])

    def test_noise_free_scan_resolves_the_smallest_point(self):
        est = empirical_gmin(self._clean_scan())
        assert est.resolved and est.g_min == 10.0

    def test_requires_enough_grid_points_and_positive_tolerance(self):
        small = _scan([_defined_row(g, [g, g]) for g in (1.0, 2.0, 3.0)])
        with pytest.raises(ValueError):
            empirical_gmin(small)
        with pytest.raises(ValueError):
            empirical_gmin(self._clean_scan(), rel_tol=0.0)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -math.inf])
    def test_nonfinite_tolerance_rejected(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol"):
            empirical_gmin(self._clean_scan(), rel_tol=rel_tol)

    def test_qualification_must_be_contiguous_from_the_top(self):
        rows = [_defined_row(g, [g, g, g]) for g in self.GRID]
        rows[2] = _defined_row(40.0, [80.0, 90.0, 100.0])  # badly biased row
        est = empirical_gmin(_scan(rows))
        assert est.resolved and est.g_min == 80.0

    def test_unresolved_scan_reports_the_grid_top(self):
        rows = [
            (g, [EstimateOutcome.excluded(ExclusionReason.BELOW_BASELINE)] * 3)
            for g in self.GRID
        ]
        est = empirical_gmin(_scan(rows))
        assert not est.resolved and est.g_min == 160.0

    def test_at_least_half_the_repetitions_must_be_defined(self):
        excluded = EstimateOutcome.excluded(ExclusionReason.OUT_OF_DOMAIN)
        half = [EstimateOutcome.of(10.0), EstimateOutcome.of(10.0), excluded, excluded]
        minority = [EstimateOutcome.of(10.0), excluded, excluded, excluded]
        top = [_defined_row(g, [g] * 4) for g in self.GRID[1:]]
        est = empirical_gmin(_scan([(10.0, half)] + top))
        assert est.g_min == 10.0
        est = empirical_gmin(_scan([(10.0, minority)] + top))
        assert est.g_min == 20.0

    def test_median_outside_tolerance_disqualifies(self):
        rows = [_defined_row(g, [g] * 3) for g in self.GRID]
        rows[0] = _defined_row(10.0, [11.5, 11.5, 11.5])  # median 15% high
        est = empirical_gmin(_scan(rows))
        assert est.g_min == 20.0
        est = empirical_gmin(_scan(rows), rel_tol=0.2)
        assert est.g_min == 10.0


class TestBiasScanIO:
    def _mixed_scan(self):
        rows = [
            _defined_row(TWO_PI * 10.0, [TWO_PI * 9.0, TWO_PI * 11.0]),
            (
                TWO_PI * 20.0,
                [
                    EstimateOutcome.of(TWO_PI * 21.0),
                    EstimateOutcome.excluded(ExclusionReason.BELOW_BASELINE),
                ],
            ),
            (
                TWO_PI * 40.0,
                [
                    EstimateOutcome.excluded(ExclusionReason.OUT_OF_DOMAIN),
                    EstimateOutcome.of(TWO_PI * 39.0),
                ],
            ),
            _defined_row(TWO_PI * 80.0, [TWO_PI * 80.0, TWO_PI * 81.0]),
        ]
        return _scan(rows)

    def test_flat_rows_report_hz_and_status_tokens(self):
        rows = bias_scan_rows(self._mixed_scan())
        assert rows[0] == (10.0, 0, "defined", pytest.approx(9.0, rel=1e-14))
        assert rows[3] == (20.0, 1, "below_baseline", None)
        assert rows[4] == (40.0, 0, "out_of_domain", None)

    def test_csv_round_trip(self, tmp_path):
        # the pipelines write their estimate tables as bias_scan_rows through
        # write_csv; every cell must parse back to the same value
        rows = bias_scan_rows(self._mixed_scan())
        header = ("g_applied_hz", "rep_index", "status", "g_hat_hz")
        path = tmp_path / "scan.csv"
        write_csv(path, header, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(header)
        back = []
        for line in lines[1:]:
            g_hz, rep, status, g_hat_hz = line.split(",")
            back.append((float(g_hz), int(rep), status,
                         float(g_hat_hz) if g_hat_hz else None))
        assert back == rows
