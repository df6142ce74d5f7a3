"""The frequency-separation inversion, the exclusion rule, and the
empirical detection-threshold scan.

Round-trips drive the inversion with noise-free model populations; every
defined estimate must then reproduce the applied parameter to float
precision. The vectorized threshold scan is held to a plain-Python
reference loop.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from ramsey_sensing.estimators import (
    REL_TOL,
    STATUS,
    BiasScan,
    bias_scan_table,
    empirical_gmin,
    invert_frequency_separation,
)
from ramsey_sensing.io_utils import write_csv
from ramsey_sensing.sensor import SensorModel, contrast, mean_population
from ramsey_sensing.signals import IntermittentTwoTone, small_g_curvature

TWO_PI = 2 * math.pi
DEFINED, BELOW_BASELINE, OUT_OF_DOMAIN = range(3)


class TestFrequencySeparationEstimator:
    SENSOR = SensorModel(0.9047787237550715, 7.97e-3)
    SPEC = IntermittentTwoTone(TWO_PI * 2000, 0.0, TWO_PI * 275, 0.5e-3)

    def _spec(self, g: float) -> IntermittentTwoTone:
        return IntermittentTwoTone(self.SPEC.omega_s, g, self.SPEC.sigma, self.SPEC.t_sig)

    def _baseline(self) -> float:
        return (1.0 - contrast(self.SENSOR, self.SPEC.period)) / 2.0

    def test_small_separation_round_trip(self):
        # the inversion assumes the small-g kernel, so drive it with the
        # kernel model rather than the full two-tone response
        kappa = small_g_curvature(self.SPEC.omega_s, self.SPEC.sigma)
        c = contrast(self.SENSOR, self.SPEC.period)
        for g_hz in (20.0, 80.0, 300.0):
            g = TWO_PI * g_hz
            p = 0.5 * (1 - c * math.exp(-kappa * g * g))
            g_hat, reason = invert_frequency_separation(p, self.SENSOR, self._spec(g))
            assert reason == DEFINED
            assert_allclose(g_hat, g, rtol=1e-10)

    def test_full_physics_bias_is_small_at_moderate_separation(self):
        # against the exact two-tone response the quadratic inversion is
        # biased low, by under 1% at 300 Hz for these parameters
        g = TWO_PI * 300.0
        p = mean_population(self._spec(g), self.SENSOR, self.SPEC.period)
        g_hat, reason = invert_frequency_separation(p, self.SENSOR, self._spec(g))
        assert reason == DEFINED
        assert 0.99 < g_hat / g < 1.0

    def test_baseline_population_maps_to_zero(self):
        g_hat, reason = invert_frequency_separation(self._baseline(), self.SENSOR, self.SPEC)
        assert reason == DEFINED and g_hat == 0.0

    def test_exclusion_reasons(self):
        _, below = invert_frequency_separation(self._baseline() * 0.5, self.SENSOR, self.SPEC)
        assert below == BELOW_BASELINE
        g_hat, reason = invert_frequency_separation([0.5, 0.73, 1.0], self.SENSOR, self.SPEC)
        assert reason.tolist() == [OUT_OF_DOMAIN] * 3
        assert np.isnan(g_hat).all()
        assert [STATUS[code] for code in (DEFINED, BELOW_BASELINE, OUT_OF_DOMAIN)] == [
            "defined", "below_baseline", "out_of_domain"]

    def test_every_population_yields_an_outcome(self):
        # dense sweep of the full [0, 1] range: one code per element, no raise
        ps = np.linspace(0.0, 1.0, 10_001)
        g_hat, reason = invert_frequency_separation(ps, self.SENSOR, self.SPEC)
        assert g_hat.shape == reason.shape == ps.shape and reason.dtype == np.int8
        excluded = (ps < self._baseline()) | (ps >= 0.5)
        assert np.array_equal(reason != DEFINED, excluded)
        # g_hat is NaN exactly where the value is excluded
        assert np.array_equal(np.isnan(g_hat), reason != DEFINED)
        defined = g_hat[~excluded]
        assert (defined >= 0.0).all() and np.isfinite(defined).all()

    def test_array_call_matches_elementwise_calls(self):
        # repeated values, a 2-D shape and a 0-d input all take one path
        c = contrast(self.SENSOR, self.SPEC.period)
        ps = np.array([[0.02, 0.3, 0.049, 0.3], [0.5, 0.02, (1 - c) / 2, 0.41]])
        g_hat, reason = invert_frequency_separation(ps, self.SENSOR, self.SPEC)
        assert g_hat.shape == reason.shape == ps.shape
        for idx, p in np.ndenumerate(ps):
            one_g, one_reason = invert_frequency_separation(p, self.SENSOR, self.SPEC)
            assert one_g.shape == one_reason.shape == ()
            assert one_reason == reason[idx]
            assert np.array_equal(one_g, g_hat[idx], equal_nan=True)

    def test_one_ulp_above_baseline_stays_defined(self):
        # at C = 0.903 the ratio (1 - 2p)/C rounds to exactly 1 here: g_hat
        # is +0.0, never -0.0
        p = math.nextafter(self._baseline(), 1.0)
        g_hat, reason = invert_frequency_separation(p, self.SENSOR, self.SPEC)
        assert reason == DEFINED and g_hat == 0.0 and not np.signbit(g_hat)

    @pytest.mark.parametrize("theta", [0.5, math.pi / 2, math.pi, -math.pi, 2 * math.pi])
    def test_rejects_other_biases(self, theta):
        sensor = SensorModel(self.SENSOR.fidelity, self.SENSOR.t2, theta=theta)
        with pytest.raises(ValueError, match="theta"):
            invert_frequency_separation(0.3, sensor, self.SPEC)

    @pytest.mark.parametrize("p_hat", [-1e-12, 1.0 + 1e-12, math.nan])
    def test_rejects_a_population_outside_the_unit_interval(self, p_hat):
        with pytest.raises(ValueError, match="probability"):
            invert_frequency_separation(p_hat, self.SENSOR, self.SPEC)
        # one bad element rejects the whole array
        with pytest.raises(ValueError, match="probability"):
            invert_frequency_separation([0.3, p_hat, 0.2], self.SENSOR, self.SPEC)

    def test_monotone_in_population(self):
        ps = np.linspace(self._baseline() + 1e-6, 0.499, 200)
        g_hat, _ = invert_frequency_separation(ps, self.SENSOR, self.SPEC)
        assert (np.diff(g_hat) > 0).all()


TONES = dict(
    omega_s_hz=st.floats(300.0, 3e4),
    sigma_hz=st.floats(1.0, 1e4),
)
# contrasts over (0, 1], with extra weight next to 1 and on tiny values
CONTRASTS = (st.floats(0.0, 1.0, exclude_min=True)
             | st.integers(0, 64).map(lambda k: 1.0 - k * 2.0**-53)
             | st.floats(5e-324, 1e-12))


def _burst(omega_s_hz, sigma_hz, g=0.0) -> IntermittentTwoTone:
    omega_s = TWO_PI * omega_s_hz
    return IntermittentTwoTone(omega_s, g, TWO_PI * sigma_hz, TWO_PI / omega_s)


class TestFrequencySeparationProperties:
    @settings(max_examples=300, deadline=None)
    @given(p_hat=st.floats(0.0, 1.0), fidelity=st.floats(1e-3, 1.0),
           t2=st.floats(1e-4, 1.0), **TONES)
    def test_total_on_the_unit_interval(self, p_hat, fidelity, t2, omega_s_hz, sigma_hz):
        # every population gives a finite g_hat >= 0 or an exclusion code
        g_hat, reason = invert_frequency_separation(
            p_hat, SensorModel(fidelity, t2),
            _burst(omega_s_hz, sigma_hz))
        if reason == DEFINED:
            assert math.isfinite(g_hat) and g_hat >= 0.0
        else:
            assert reason in (BELOW_BASELINE, OUT_OF_DOMAIN) and math.isnan(g_hat)

    @settings(max_examples=300, deadline=None)
    @given(log_x=st.floats(-6.0, math.log10(5.0)),
           fidelity=st.floats(0.1, 1.0), t2_over_t1=st.floats(1.0, 1e3), **TONES)
    def test_inverts_its_own_model(self, log_x, fidelity, t2_over_t1, omega_s_hz, sigma_hz):
        # x = kappa g^2 in [1e-6, 5] at contrast C(t1) >= 0.1
        spec = _burst(omega_s_hz, sigma_hz)
        sensor = SensorModel(fidelity, t2_over_t1 * spec.period)
        c = contrast(sensor, spec.period)
        assume(c >= 0.1)
        x = 10.0**log_x
        g = math.sqrt(x / small_g_curvature(spec.omega_s, spec.sigma))
        p = 0.5 * (1.0 - c * math.exp(-x))
        g_hat, reason = invert_frequency_separation(
            p, sensor, _burst(omega_s_hz, sigma_hz, g))
        assert reason == DEFINED
        assert g_hat == pytest.approx(g, rel=1e-8)

    @settings(max_examples=300, deadline=None)
    @given(c=CONTRASTS, ulps=st.integers(0, 6), p_random=st.floats(0.0, 1.0))
    def test_defined_estimates_have_a_clear_sign_bit(self, c, ulps, p_random):
        # at the baseline, a few floats above it and at random; T2 is so
        # long that the contrast at one period is the fidelity c itself
        sensor = SensorModel(c, 1e6)
        spec = TestFrequencySeparationEstimator.SPEC
        p = (1.0 - contrast(sensor, spec.period)) / 2.0
        for _ in range(ulps):
            p = math.nextafter(p, 1.0)
        g_hat, reason = invert_frequency_separation(np.array([p, p_random]), sensor, spec)
        defined = g_hat[reason == DEFINED]
        assert (defined >= 0.0).all() and not np.signbit(defined).any()


def _scan(rows):
    """BiasScan from (applied, cells) rows; a cell is a defined g_hat or the
    STATUS token of an exclusion."""
    applied, g_hat, reason = [], [], []
    for g, cells in rows:
        applied.append(g)
        g_hat.append([math.nan if isinstance(c, str) else c for c in cells])
        reason.append([STATUS.index(c) if isinstance(c, str) else DEFINED for c in cells])
    return BiasScan(applied, g_hat, reason)


class TestBiasScanValidation:
    def test_applied_values_strictly_increasing(self):
        with pytest.raises(ValueError):
            _scan([(2.0, [2.0, 2.0]), (1.0, [1.0, 1.0])])

    def test_minimum_repetitions(self):
        with pytest.raises(ValueError):
            _scan([(1.0, [1.0])])

    def test_g_hat_is_nan_exactly_where_excluded(self):
        with pytest.raises(ValueError, match="NaN exactly"):
            BiasScan([1.0], [[1.0, 1.0]], [[0, 1]])
        with pytest.raises(ValueError, match="NaN exactly"):
            BiasScan([1.0], [[1.0, math.nan]], [[0, 0]])

    def test_reason_codes_index_status(self):
        for code in (-1, len(STATUS)):
            with pytest.raises(ValueError, match="index STATUS"):
                BiasScan([1.0], [[1.0, math.nan]], [[0, code]])

    def test_shapes_must_match(self):
        with pytest.raises(ValueError, match="G, R"):
            BiasScan([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], [[0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="G, R"):
            BiasScan([1.0, 2.0, 3.0], [[1.0, 1.0], [2.0, 2.0]], [[0, 0], [0, 0]])
        with pytest.raises(ValueError, match="G, R"):
            BiasScan([1.0, 2.0], [1.0, 2.0], [0, 0])


class TestEmpiricalGmin:
    GRID = [10.0, 20.0, 40.0, 80.0, 160.0]

    def _clean_scan(self):
        return _scan([(g, [g, g * 1.01, g * 0.99]) for g in self.GRID])

    def test_noise_free_scan_resolves_the_smallest_point(self):
        est = empirical_gmin(self._clean_scan())
        assert est.resolved and est.g_min == 10.0

    def test_requires_enough_grid_points(self):
        small = _scan([(g, [g, g]) for g in (1.0, 2.0, 3.0)])
        with pytest.raises(ValueError):
            empirical_gmin(small)

    def test_qualification_must_be_contiguous_from_the_top(self):
        rows = [(g, [g, g, g]) for g in self.GRID]
        rows[2] = (40.0, [80.0, 90.0, 100.0])  # badly biased row
        est = empirical_gmin(_scan(rows))
        assert est.resolved and est.g_min == 80.0

    def test_unresolved_scan_reports_the_grid_top(self):
        rows = [(g, ["below_baseline"] * 3) for g in self.GRID]
        est = empirical_gmin(_scan(rows))
        assert not est.resolved and est.g_min == 160.0

    def test_at_least_half_the_repetitions_must_be_defined(self):
        half = [10.0, 10.0, "out_of_domain", "out_of_domain"]
        minority = [10.0, "out_of_domain", "out_of_domain", "out_of_domain"]
        top = [(g, [g] * 4) for g in self.GRID[1:]]
        est = empirical_gmin(_scan([(10.0, half)] + top))
        assert est.g_min == 10.0
        est = empirical_gmin(_scan([(10.0, minority)] + top))
        assert est.g_min == 20.0

    def test_median_outside_tolerance_disqualifies(self):
        rows = [(g, [g] * 3) for g in self.GRID]
        rows[0] = (10.0, [11.5, 11.5, 11.5])  # median 15% high
        est = empirical_gmin(_scan(rows))
        assert est.g_min == 20.0

    def test_tolerance_edge_qualifies(self):
        # |11 - 10| and 0.1 * 10 are both exactly 1.0
        rows = [(g, [g] * 3) for g in self.GRID]
        rows[0] = (10.0, [11.0, 9.0, 11.0])
        assert empirical_gmin(_scan(rows)).g_min == 10.0


def _reference_gmin(applied, g_hat, reason, rel_tol):
    """empirical_gmin as a plain loop over rows, with statistics.median."""
    qualifying_from = None
    for g, hats, codes in reversed(list(zip(applied, g_hat, reason))):
        defined = [h for h, code in zip(hats, codes) if code == DEFINED]
        if 2 * len(defined) < len(hats) or abs(statistics.median(defined) - g) > rel_tol * g:
            break
        qualifying_from = g
    if qualifying_from is None:
        return applied[-1], False
    return qualifying_from, True


@st.composite
def scans(draw):
    """Random scans: any R from 2 (even and odd), rows that track their
    applied value or not, and a per-row exclusion rate up to every cell."""
    n_points = draw(st.integers(4, 8))
    reps = draw(st.sampled_from([2, 3, 4, 5, 6, 11]))
    steps = draw(st.lists(st.floats(0.1, 100.0), min_size=n_points, max_size=n_points))
    applied = np.cumsum(steps).tolist()
    g_hat, reason = [], []
    for g in applied:
        excluded_rate = draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))
        spread = draw(st.sampled_from([0.0, 0.05, 0.3]))
        hats, codes = [], []
        for _ in range(reps):
            if draw(st.floats(0.0, 1.0)) < excluded_rate:
                hats.append(math.nan)
                codes.append(draw(st.sampled_from([BELOW_BASELINE, OUT_OF_DOMAIN])))
            else:
                # offsets on the tolerance edges put medians on the boundary
                offset = draw(st.one_of(st.floats(-spread, spread),
                                        st.sampled_from([-0.25, -0.1, -0.02, 0.02, 0.1, 0.25])))
                hats.append(g * (1.0 + offset))
                codes.append(DEFINED)
        g_hat.append(hats)
        reason.append(codes)
    return applied, g_hat, reason


class TestEmpiricalGminProperties:
    @settings(max_examples=300, deadline=None)
    @given(scan=scans())
    def test_matches_the_reference_loop(self, scan):
        est = empirical_gmin(BiasScan(*scan))
        assert (est.g_min, est.resolved) == _reference_gmin(*scan, REL_TOL)


class TestBiasScanIO:
    def _mixed_scan(self):
        return _scan([
            (TWO_PI * 10.0, [TWO_PI * 9.0, TWO_PI * 11.0]),
            (TWO_PI * 20.0, [TWO_PI * 21.0, "below_baseline"]),
            (TWO_PI * 40.0, ["out_of_domain", TWO_PI * 39.0]),
            (TWO_PI * 80.0, [TWO_PI * 80.0, TWO_PI * 81.0]),
        ])

    def test_flat_rows_report_hz_and_status_tokens(self):
        table = bias_scan_table(self._mixed_scan())
        rows = list(zip(*(column.tolist() for column in table.values())))
        assert list(table) == ["g_applied_hz", "rep_index", "status", "g_hat_hz"]
        assert rows[0] == (10.0, 0, "defined", pytest.approx(9.0, rel=1e-14))
        assert rows[3][:3] == (20.0, 1, "below_baseline") and math.isnan(rows[3][3])
        assert rows[4][:3] == (40.0, 0, "out_of_domain") and math.isnan(rows[4][3])

    def test_csv_round_trip(self, tmp_path):
        # the pipelines write their estimate tables as bias_scan_table through
        # write_csv; every cell must parse back to the same value, and an
        # excluded cell is empty, not "nan"
        table = bias_scan_table(self._mixed_scan())
        path = tmp_path / "scan.csv"
        write_csv(path, table)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(table)
        assert "nan" not in path.read_text()
        back = {name: [] for name in table}
        for line in lines[1:]:
            g_hz, rep, status, g_hat_hz = line.split(",")
            back["g_applied_hz"].append(float(g_hz))
            back["rep_index"].append(int(rep))
            back["status"].append(status)
            back["g_hat_hz"].append(float(g_hat_hz) if g_hat_hz else math.nan)
        for name, column in table.items():
            assert_array_equal(back[name], column)
