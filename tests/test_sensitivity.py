"""Detection-threshold closed forms against an exact-SNR root-finder, the
integration-time optimizers, and the compensation/excess-sensor laws.

The root-finder solves SNR(g) = 1 on the full population model with no
small-signal expansion; it is the arbiter for every closed form here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

from ramsey_sensing import sensitivity
from ramsey_sensing.experiments import _fidelity_grid
from ramsey_sensing.sensor import EnsembleConfig, SensorModel, contrast, mean_population, qpn_variance
from ramsey_sensing.sensitivity import (
    BRENT_MAXITER,
    BRENT_RTOL,
    BRENT_XTOL,
    VALIDITY_LIMIT,
    SensitivityResult,
    brentq,
    compensation_threshold,
    exact_snr,
    excess_sensors,
    gmin_at_optimum,
    gmin_constant,
    gmin_continuous_two_tone,
    gmin_gaussian_kernel,
    gmin_variance,
    mc_snr,
    optimal_integration_time,
    root_found_gmin,
    snr_curve,
)
from ramsey_sensing.signals import (
    Constant,
    StochasticAmplitude,
    TwoToneStochastic,
    small_g_curvature,
)
from ramsey_sensing.streams import derive_stream
from reference import mc_gmin_crossing

TWO_PI = 2 * math.pi


class TestConstantClosedForm:
    def test_frozen_unit_example(self):
        g = gmin_constant(SensorModel(1.0, 1.0), EnsembleConfig(1000, 1), 1.0).g_min
        assert_allclose(g, 0.05213714442179438, rtol=1e-12)

    def test_matches_slope_inversion_oracle(self):
        # at quadrature bias the exact crossing solves C sin(g t) sqrt(NM) =
        # sqrt(1 - C^2 sin^2(g t)), i.e. sin(g t) = 1/(C sqrt(NM+1)); the
        # closed form is its small-angle, large-NM limit
        sensor = SensorModel(0.8, 10e-3, theta=math.pi / 2)
        ens = EnsembleConfig(2000, 5)
        t_i = 6e-3
        rf = root_found_gmin(Constant(0.0), sensor, ens, t_i).g_min
        c = contrast(sensor, t_i)
        oracle = math.asin(1.0 / (c * math.sqrt(ens.total + 1))) / t_i
        assert_allclose(rf, oracle, rtol=1e-9)
        cf = gmin_constant(sensor, ens, t_i).g_min
        assert abs(cf - rf) / rf < 2e-5

    def test_scaling_in_ensemble_and_contrast(self):
        sensor = SensorModel(0.9, 10e-3)
        t_i = 5e-3
        g1 = gmin_constant(sensor, EnsembleConfig(1000, 1), t_i).g_min
        g4 = gmin_constant(sensor, EnsembleConfig(1000, 4), t_i).g_min
        assert_allclose(g1 / g4, 2.0, rtol=1e-12)
        half = gmin_constant(SensorModel(0.45, 10e-3), EnsembleConfig(1000, 1), t_i).g_min
        assert_allclose(half / g1, 2.0, rtol=1e-12)

    def test_validity_flag_and_time_check(self):
        # tiny ensembles push g_min*t past the small-angle regime
        assert not gmin_constant(SensorModel(0.9, 1.0), EnsembleConfig(4, 1), 1.0).validity
        assert gmin_constant(SensorModel(0.9, 1.0), EnsembleConfig(10**6, 1), 1.0).validity
        with pytest.raises(ValueError):
            gmin_constant(SensorModel(0.9, 1.0), EnsembleConfig(10, 1), 0.0)

    def test_result_rejects_nonpositive_gmin(self):
        with pytest.raises(ValueError):
            SensitivityResult(0.0, "closed_form", True, 1.0)

    @pytest.mark.parametrize("t_i", [0.4, 1.0, 1e3])
    def test_contrast_underflow_raises_value_error(self, t_i):
        # C(t_i) = 0.9 e^{-t_i^2/(2 T2^2)} is exactly 0.0 past t_i ~ 0.39 s at T2 = 10 ms
        with pytest.raises(ValueError, match="contrast underflows"):
            gmin_constant(SensorModel(0.9, 10e-3), EnsembleConfig(1000, 1), t_i)


class TestGaussianKernel:
    def test_solves_the_linearized_quadratic(self):
        # x = kappa g^2 must satisfy NM C^2 x^2 - 2 C^2 x - (1 - C^2) = 0
        kappa = 0.5
        for c in (0.05, 0.3, 0.9, 1.0):
            for nm in (10, 1000, 10**6):
                g = gmin_gaussian_kernel(c, nm, kappa)
                x = kappa * g * g
                residual = nm * c * c * x * x - 2 * c * c * x - (1 - c * c)
                assert abs(residual) < 1e-12 * max(1.0, nm * c * c * x * x)

    def test_perfect_contrast_limit(self):
        for nm in (1000, 10**6):
            g = gmin_gaussian_kernel(1.0, nm, 2.0)
            assert_allclose(g, math.sqrt((2.0 / nm) / 2.0), rtol=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gmin_gaussian_kernel(0.0, 10, 1.0)
        with pytest.raises(ValueError):
            gmin_gaussian_kernel(1.1, 10, 1.0)
        with pytest.raises(ValueError):
            gmin_gaussian_kernel(0.5, 10, 0.0)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_nonfinite_kappa_rejected(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            gmin_gaussian_kernel(0.5, 10, kappa)


class TestVarianceClosedForm:
    def test_reduces_to_kernel_with_time_squared_curvature(self):
        sensor = SensorModel(0.9, 10e-3)
        ens = EnsembleConfig(1000, 1)
        t_i = 4e-3
        direct = gmin_gaussian_kernel(contrast(sensor, t_i), ens.total, t_i * t_i / 2.0)
        assert gmin_variance(sensor, ens, t_i).g_min == direct

    def test_root_finder_agreement_in_validity_regime(self):
        sensor = SensorModel(0.9, 10e-3)
        for nm, tol in ((10**4, 0.005), (10**6, 5e-4)):
            ens = EnsembleConfig(nm, 1)
            cf = gmin_variance(sensor, ens, 8e-3)
            rf = root_found_gmin(StochasticAmplitude(0.0), sensor, ens, 8e-3)
            assert cf.validity
            assert abs(cf.g_min - rf.g_min) / rf.g_min < tol


class TestIntermittentClosedForm:
    OMEGA_S = TWO_PI * 2000.0
    SIGMA = TWO_PI * 275.0

    def test_frozen_burst_sensitivity(self):
        sensor = SensorModel(0.9047787237550715, 7.97e-3)
        res = gmin_at_optimum("intermittent", sensor, EnsembleConfig(1000, 1),
                              omega_s=self.OMEGA_S, sigma=self.SIGMA)
        assert_allclose(res.g_min / TWO_PI, 293.5471862857504, rtol=1e-12)
        assert res.validity
        assert res.t_i == pytest.approx(0.5e-3, rel=1e-12)


BAD_TONES = [
    (0.0, TWO_PI * 275.0),
    (-TWO_PI * 2000.0, TWO_PI * 275.0),
    (math.nan, TWO_PI * 275.0),
    (math.inf, TWO_PI * 275.0),
    (TWO_PI * 2000.0, 0.0),
    (TWO_PI * 2000.0, -1.0),
    (TWO_PI * 2000.0, math.nan),
    (TWO_PI * 2000.0, math.inf),
]


@pytest.mark.parametrize("scenario", ["intermittent", "continuous_two_tone"])
@pytest.mark.parametrize("omega_s, sigma", BAD_TONES)
def test_two_tone_closed_forms_reject_bad_tones(scenario, omega_s, sigma):
    with pytest.raises(ValueError, match="omega_s and sigma"):
        gmin_at_optimum(scenario, SensorModel(0.9, 8e-3), EnsembleConfig(1000, 1),
                        omega_s=omega_s, sigma=sigma)


class TestGminAtOptimum:
    SENSOR = SensorModel(0.7, 10e-3)
    ENS = EnsembleConfig(1000, 1)
    TONES = dict(omega_s=TWO_PI * 1000.0, sigma=TWO_PI * 500.0)

    def test_constant_and_variance_sit_at_their_optimal_times(self):
        s, ens = self.SENSOR, self.ENS
        t_var = optimal_integration_time("variance", s, ens)
        assert gmin_at_optimum("constant", s, ens) == gmin_constant(s, ens, s.t2)
        assert optimal_integration_time("constant", s, ens) == gmin_at_optimum(
            "constant", s, ens).t_i == s.t2
        assert gmin_at_optimum("variance", s, ens) == gmin_variance(s, ens, t_var)
        assert gmin_at_optimum("variance", s, ens).t_i == t_var

    @settings(max_examples=80, deadline=None)
    @given(scenario=st.sampled_from(["continuous_two_tone", "intermittent"]),
           fidelity=st.floats(1e-3, 1.0), nm=st.integers(1, 10**6), t2=st.floats(1e-3, 0.05),
           omega_s_hz=st.floats(100.0, 1e4), sigma_hz=st.floats(1.0, 1e4))
    def test_two_tone_scenarios_take_their_best_period_multiple(
            self, scenario, fidelity, nm, t2, omega_s_hz, sigma_hz):
        # the kernel form at t = n P with kappa = n^2 kappa_1, least over
        # n <= 5 T2 / P (continuous) or n = 1 (intermittent), ties to the smaller n;
        # P <= 10 T2 here, so C(P) stays above 0
        omega_s, sigma = TWO_PI * omega_s_hz, TWO_PI * sigma_hz
        sensor = SensorModel(fidelity, t2)
        period, kappa_1 = TWO_PI / omega_s, small_g_curvature(omega_s, sigma)
        n_max = max(1, int(5.0 * t2 / period)) if scenario == "continuous_two_tone" else 1
        g, n = min((gmin_gaussian_kernel(contrast(sensor, n * period), nm, n * n * kappa_1), n)
                   for n in range(1, n_max + 1))
        expected = SensitivityResult(g, "closed_form", n * n * kappa_1 * g * g < VALIDITY_LIMIT,
                                     n * period)
        got = gmin_at_optimum(scenario, sensor, EnsembleConfig(nm, 1),
                              omega_s=omega_s, sigma=sigma)
        assert got == expected

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            gmin_at_optimum("ramp", self.SENSOR, self.ENS)

    @pytest.mark.parametrize("scenario", ["continuous_two_tone", "intermittent"])
    @pytest.mark.parametrize("missing", ["omega_s", "sigma"])
    def test_two_tone_scenarios_need_their_tones(self, scenario, missing):
        tones = {k: v for k, v in self.TONES.items() if k != missing}
        with pytest.raises(ValueError, match="needs omega_s and sigma"):
            gmin_at_optimum(scenario, self.SENSOR, self.ENS, **tones)


def _two_tone_costs(fidelity, nm, t2, omega_s, sigma):
    """The two costs the continuous two-tone row is searched with: the kernel
    g_min at N*M = nm, and the count that detects the unity sensor's g_min."""
    sensor = SensorModel(fidelity, t2)
    target = gmin_at_optimum("continuous_two_tone", SensorModel(1.0, t2), EnsembleConfig(nm, 1),
                             omega_s=omega_s, sigma=sigma).g_min
    return (lambda t, kappa: gmin_gaussian_kernel(contrast(sensor, t), nm, kappa),
            lambda t, kappa: sensitivity._kernel_nm(contrast(sensor, t), kappa * target**2))


def _every_multiple(t2, omega_s, sigma, cost):
    """The continuous two-tone row searched at every multiple n P, n <= max(1, 5 T2 // P)."""
    period, kappa_1 = TWO_PI / omega_s, small_g_curvature(omega_s, sigma)
    n_max = max(1, int(5.0 * t2 / period))
    return min((cost(n * period, n * n * kappa_1), n * period, n * n * kappa_1)
               for n in range(1, n_max + 1))


class TestTwoToneSearch:
    """The continuous two-tone row evaluates three multiples around a
    golden-section optimum over t, and picks what trying every multiple
    picks, bit for bit, at a cost that grows only as log(T2 omega_s)."""

    FIG3_TONES = dict(omega_s=TWO_PI * 1000.0, sigma=TWO_PI * 500.0)

    def test_fig3s_grid_matches_every_multiple(self):
        for f in _fidelity_grid():
            for cost in _two_tone_costs(f, 1000, 10e-3, **self.FIG3_TONES):
                got = sensitivity._kernel_optimum("continuous_two_tone", 10e-3,
                                                  cost=cost, **self.FIG3_TONES)
                assert got == _every_multiple(10e-3, cost=cost, **self.FIG3_TONES), f

    @settings(max_examples=150, deadline=None)
    @given(fidelity=st.floats(0.01, 1.0), nm=st.integers(10, 10**6), t2=st.floats(1e-3, 0.1),
           omega_s_hz=st.floats(100.0, 1e4), sigma_hz=st.floats(1.0, 1e4))
    def test_random_inputs_match_every_multiple(self, fidelity, nm, t2, omega_s_hz, sigma_hz):
        tones = dict(omega_s=TWO_PI * omega_s_hz, sigma=TWO_PI * sigma_hz)
        for cost in _two_tone_costs(fidelity, nm, t2, **tones):
            got = sensitivity._kernel_optimum("continuous_two_tone", t2, cost=cost, **tones)
            assert got == _every_multiple(t2, cost=cost, **tones)

    def test_cost_evaluations_do_not_grow_with_t2_omega_s(self):
        # omega_s = 2 pi 1 MHz at T2 = 1 s: five million multiples, of which
        # the search evaluates the golden-section steps to half a period (36)
        # and three, none with kappa below kappa_1
        tones = dict(omega_s=TWO_PI * 1e6, sigma=TWO_PI * 500.0)
        kappa_1 = small_g_curvature(**tones)
        for cost in _two_tone_costs(0.9, 1000, 1.0, **tones):
            kappas = []

            def counting(t, kappa, cost=cost):
                kappas.append(kappa)
                return cost(t, kappa)

            sensitivity._kernel_optimum("continuous_two_tone", 1.0, cost=counting, **tones)
            assert len(kappas) <= 50
            assert min(kappas) >= kappa_1


class TestRootFinder:
    def test_snr_vanishes_at_zero_signal(self):
        sensor = SensorModel(0.9, 10e-3)
        spec = TwoToneStochastic(TWO_PI * 1000, 0.0, TWO_PI * 500)
        assert exact_snr(spec, sensor, EnsembleConfig(1000, 1), 1e-3) == 0.0

    def test_crossing_really_sits_at_unit_snr(self):
        sensor = SensorModel(0.85, 10e-3)
        ens = EnsembleConfig(5000, 1)
        spec = StochasticAmplitude(0.0)
        res = root_found_gmin(spec, sensor, ens, 6e-3)
        snr = exact_snr(StochasticAmplitude(res.g_min), sensor, ens, 6e-3)
        assert_allclose(snr, 1.0, rtol=1e-10)

    def test_undetectable_signal_raises(self):
        # max population shift C/2 sits below the projection-noise floor
        sensor = SensorModel(0.02, 10e-3)
        with pytest.raises(ValueError):
            root_found_gmin(
                TwoToneStochastic(TWO_PI * 1000, 0.0, TWO_PI * 500), sensor,
                EnsembleConfig(1000, 1), 1e-3)

    def test_mc_crossing_concordance(self):
        sensor = SensorModel(0.9, 10e-3, theta=math.pi / 2)
        ens = EnsembleConfig(50, 8)
        cf = gmin_constant(sensor, ens, 7e-3).g_min
        mc = mc_gmin_crossing(
            Constant(0.0), sensor, ens, 7e-3, derive_stream(11, 0),
            bracket_center=cf, n_shots=30_000, n_avg=2)
        assert mc.method == "monte_carlo"
        assert abs(mc.g_min - cf) / cf < 0.05

    @pytest.mark.parametrize("solve", [
        lambda spec, s, ens: root_found_gmin(spec, s, ens, 0.0),
        lambda spec, s, ens: mc_gmin_crossing(spec, s, ens, 1e-3, derive_stream(11, 2),
                                              bracket_center=0.0, n_shots=100, n_avg=1),
    ], ids=["root_found_t_i", "mc_bracket_center"])
    @pytest.mark.parametrize("spec", [Constant(0.0), StochasticAmplitude(0.0)],
                             ids=["constant", "stochastic"])
    def test_zero_scale_raises_value_error(self, solve, spec):
        with pytest.raises(ValueError, match="finite and > 0"):
            solve(spec, SensorModel(0.9, 10e-3), EnsembleConfig(1000, 1))


class TestSnrCurve:
    SENSOR = SensorModel(1.0, 10e-3)
    ENS = EnsembleConfig(1000, 1)
    SPEC = TwoToneStochastic(TWO_PI * 1000, TWO_PI * 10, TWO_PI * 500)

    def test_analytic_curve_matches_exact_snr(self):
        # on the fig3 panel (a) grid the signed curve dips below zero between
        # rephasing times; its magnitude is exact_snr bit for bit
        spec = TwoToneStochastic(self.SPEC.omega_s, TWO_PI * 10, self.SPEC.sigma)
        t_grid = [round(k * 5e-5, 10) for k in range(1, 601)]
        curve = snr_curve(self.SPEC, self.SENSOR, self.ENS, TWO_PI * 10, t_grid)
        assert min(snr for _, snr in curve) < -0.5
        for t_i, snr in curve:
            assert abs(snr) == exact_snr(spec, self.SENSOR, self.ENS, t_i)

    def test_rephasing_times_beat_the_midpoints(self):
        period = TWO_PI / self.SPEC.omega_s
        curve = dict(snr_curve(self.SPEC, self.SENSOR, self.ENS, TWO_PI * 10,
                               [period, 1.5 * period, 2 * period]))
        assert curve[period] > curve[1.5 * period]
        assert curve[2 * period] > curve[1.5 * period]

    def test_mc_variant_is_deterministic_and_concordant(self):
        # the Monte-Carlo SNR curve is mc_snr per point, one stream per point
        t_grid = [1e-3, 2e-3, 3e-3]

        def mc_curve():
            return [(t_i, mc_snr(self.SPEC, self.SENSOR, self.ENS, t_i,
                                 derive_stream(11, 1, idx), 50_000))
                    for idx, t_i in enumerate(t_grid)]

        a = mc_curve()
        b = mc_curve()
        assert a == b
        analytic = snr_curve(self.SPEC, self.SENSOR, self.ENS, TWO_PI * 10, t_grid)
        sigma = math.sqrt(self.ENS.total / 50_000)
        for (_, mc), (_, exact) in zip(a, analytic):
            assert abs(mc - exact) < 4 * sigma


class TestOptimalIntegrationTime:
    def test_constant_optimum_is_the_coherence_time(self):
        sensor = SensorModel(0.8, 10e-3)
        t_opt = optimal_integration_time("constant", sensor, EnsembleConfig(1000, 1))
        assert abs(t_opt / sensor.t2 - 1.0) < 1e-3

    def test_variance_optimum_frozen_values(self):
        sensor = SensorModel(1.0, 10e-3)
        ratios = {
            10**3: 1.279022665070217,
            10**6: 1.2629299473563174,
        }
        for nm, expected in ratios.items():
            t_opt = optimal_integration_time("variance", sensor, EnsembleConfig(nm, 1))
            assert_allclose(t_opt / sensor.t2, expected, rtol=2e-4)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            optimal_integration_time("ramp", SensorModel(1.0, 1.0), EnsembleConfig(10, 1))


class TestContinuousTwoTone:
    OMEGA_S = TWO_PI * 1000.0
    SIGMA = TWO_PI * 500.0
    TONES = dict(omega_s=OMEGA_S, sigma=SIGMA)

    def test_kernel_and_root_finder_agree_at_high_fidelity(self):
        sensor = SensorModel(0.95, 10e-3)
        ens = EnsembleConfig(10**6, 1)
        ck = gmin_at_optimum("continuous_two_tone", sensor, ens, **self.TONES)
        cr = gmin_continuous_two_tone(sensor, ens, self.OMEGA_S, self.SIGMA)
        assert ck.validity
        assert abs(ck.g_min - cr.g_min) / cr.g_min < 0.01

    def test_kernel_optimum_is_an_integer_period_multiple(self):
        sensor = SensorModel(0.95, 10e-3)
        res = gmin_at_optimum("continuous_two_tone", sensor, EnsembleConfig(1000, 1),
                              **self.TONES)
        period = TWO_PI / self.OMEGA_S
        n = round(res.t_i / period)
        assert n >= 1
        assert_allclose(res.t_i, n * period, rtol=1e-12)

    def test_root_found_optimum_sits_near_a_period_multiple(self):
        # the g = 0 noise floor rephases at each center period; the
        # golden-section refinement stays within half a period of one
        sensor = SensorModel(1.0, 10e-3)
        res = gmin_continuous_two_tone(sensor, EnsembleConfig(1000, 1), self.OMEGA_S, self.SIGMA)
        period = TWO_PI / self.OMEGA_S
        assert abs(res.t_i / period - round(res.t_i / period)) < 0.05
        assert 1.0e-3 < res.t_i < 50e-3

    def test_kernel_extends_below_the_saturation_point_with_validity_flag(self):
        # the root-finder cannot cross SNR=1 here; the linearized kernel
        # still returns a number but flags the regime
        sensor = SensorModel(0.02, 10e-3)
        ens = EnsembleConfig(1000, 1)
        res = gmin_at_optimum("continuous_two_tone", sensor, ens, **self.TONES)
        assert res.g_min > 0 and not res.validity
        with pytest.raises(ValueError):
            gmin_continuous_two_tone(sensor, ens, self.OMEGA_S, self.SIGMA)


class TestCompensation:
    def test_constant_counts_are_inverse_square_fidelity(self):
        # F = 0.5 lands exactly on the 1/F^2 = 4 boundary and must not
        # round up to 5
        for f in [round(0.1 * k, 1) for k in range(1, 10)]:
            m = math.ceil(compensation_threshold("constant", f, n_shots=1000, t2=10e-3))
            assert m == math.ceil(1.0 / f**2)

    def test_constant_threshold_is_exact(self):
        assert compensation_threshold("constant", 0.25, n_shots=1000, t2=10e-3) == 16.0

    def test_variance_threshold_band(self):
        # the kernel costs a little more than the constant signal's 1/F^2
        for f in [round(0.1 * k, 1) for k in range(1, 10)]:
            th = compensation_threshold("variance", f, n_shots=1000, t2=10e-3)
            assert 1.03 < th * f * f < 1.16

    def test_argument_validation(self):
        # the kernel table names the scenarios a count accepts
        with pytest.raises(ValueError, match="unknown scenario: ramp"):
            compensation_threshold("ramp", 0.5, n_shots=10, t2=1.0)

    @pytest.mark.parametrize("kwargs", [dict(n_shots=0, t2=1.0), dict(n_shots=10, t2=-1.0)])
    def test_constant_validates_the_inputs_its_closed_form_does_not_read(self, kwargs):
        # 1/F^2 needs neither N nor T2, but a bad value is still a usage error
        with pytest.raises(ValueError):
            compensation_threshold("constant", 0.5, **kwargs)

    @pytest.mark.parametrize("scenario", ["constant", "variance", "continuous_two_tone",
                                          "intermittent"])
    @pytest.mark.parametrize("fidelity", [0.0, 1.5, math.nan])
    def test_fidelity_outside_unit_interval_rejected(self, scenario, fidelity):
        kwargs = dict(n_shots=1000, t2=7.97e-3, omega_s=TWO_PI * 2000, sigma=TWO_PI * 275)
        with pytest.raises(ValueError, match="fidelity"):
            compensation_threshold(scenario, fidelity, **kwargs)

    def test_intermittent_needs_its_tones(self):
        with pytest.raises(ValueError, match="needs omega_s and sigma"):
            compensation_threshold("intermittent", 0.5, n_shots=1000, t2=7.97e-3)
        with pytest.raises(ValueError, match="needs omega_s and sigma"):
            compensation_threshold("continuous_two_tone", 0.5, n_shots=1000, t2=7.97e-3)
        with pytest.raises(ValueError, match="needs omega_s and sigma"):
            compensation_threshold("intermittent", 0.5, n_shots=1000, t2=7.97e-3,
                                   omega_s=TWO_PI * 2000)

    @pytest.mark.parametrize("fidelity, m_f2", [(0.9, 1.0361), (0.5, 1.1245),
                                                 (0.1, 1.1575), (0.05, 1.1585)])
    def test_continuous_two_tone_count_at_fig3s_tones(self, fidelity, m_f2):
        # fig3's tones, T2 = 10 ms and N = 1000; the count reads the two-tone
        # row of the kernel table, t = n P with kappa = n^2 kappa_1
        tones = dict(omega_s=TWO_PI * 1000, sigma=TWO_PI * 500)
        th = compensation_threshold("continuous_two_tone", fidelity, n_shots=1000, t2=10e-3,
                                    **tones)
        assert th * fidelity**2 == pytest.approx(m_f2, rel=1e-4)
        g_unity = gmin_at_optimum("continuous_two_tone", SensorModel(1.0, 10e-3),
                                  EnsembleConfig(1000, 1), **tones).g_min
        g_at = lambda m: gmin_at_optimum("continuous_two_tone", SensorModel(fidelity, 10e-3),
                                         EnsembleConfig(1000, m), **tones).g_min
        m = math.ceil(th)
        assert g_at(m) <= g_unity < g_at(m - 1)


class TestBrentq:
    # increasing functions with one root r: smooth, saturating, steep, and
    # a cube-root cusp that forces the bisection fallback
    FAMILIES = (
        lambda r, s: lambda x: math.tanh(s * (x - r)),
        lambda r, s: lambda x: s * (x - r) ** 3 + (x - r),
        lambda r, s: lambda x: s * math.atan(x - r) + 1e-3 * (x - r) ** 5,
        lambda r, s: lambda x: s * math.copysign(abs(x - r) ** (1 / 3), x - r),
    )

    @settings(max_examples=400, deadline=None)
    @given(family=st.integers(0, len(FAMILIES) - 1),
           root=st.floats(-100, 100),
           log_scale=st.floats(-3, 2),
           log_below=st.floats(-6, 1),
           log_above=st.floats(-6, 1),
           decreasing=st.booleans())
    def test_matches_scipy_bit_for_bit(self, family, root, log_scale, log_below, log_above,
                                       decreasing):
        rising = self.FAMILIES[family](root, 10.0**log_scale)
        f = (lambda x: -rising(x)) if decreasing else rising
        a, b = root - 10.0**log_below, root + 10.0**log_above

        def outcome(solver):
            # a root at 0 with xtol 1e-300 can outlast maxiter: both must then raise
            try:
                return solver(f, a, b)
            except RuntimeError:
                return "no convergence"

        assert outcome(brentq) == outcome(
            lambda f, a, b: scipy_brentq(f, a, b, xtol=BRENT_XTOL, rtol=BRENT_RTOL,
                                         maxiter=BRENT_MAXITER))

    def test_rejects_a_bracket_without_a_sign_change(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_reports_non_convergence(self):
        # a cusp root at 0: closing the bracket to xtol 1e-300 takes ~1000 bisections
        with pytest.raises(RuntimeError, match="converge"):
            brentq(lambda x: math.copysign(abs(x) ** (1 / 3), x), -1.0, 2.0)


FIDELITIES = st.floats(1e-3, 1.0, exclude_max=True)
N_SHOTS = st.integers(1, 10**6)
T2S = st.floats(1e-4, 1.0)


class TestCompensationThresholdProperties:
    """At N*M = N * threshold, the kernel g_min of the F < 1 sensor equals
    the unity sensor's g_min at M = 1."""

    @settings(max_examples=60, deadline=None)
    @given(fidelity=FIDELITIES, n_shots=N_SHOTS, t2=T2S)
    def test_variance_threshold_reproduces_the_unity_target(self, fidelity, n_shots, t2):
        th = compensation_threshold("variance", fidelity, n_shots=n_shots, t2=t2)
        target = gmin_at_optimum("variance", SensorModel(1.0, t2),
                                 EnsembleConfig(n_shots, 1)).g_min
        sensor = SensorModel(fidelity, t2)
        # independent optimizer over the same window: the F-side g_min at its best time
        best = minimize_scalar(
            lambda t: gmin_gaussian_kernel(contrast(sensor, t), n_shots * th, t * t / 2.0),
            bounds=(1e-6 * t2, 5.0 * t2), method="bounded", options={"xatol": 1e-9 * t2})
        assert best.fun == pytest.approx(target, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(fidelity=FIDELITIES, n_shots=N_SHOTS, t2=T2S,
           omega_s_hz=st.floats(300.0, 3e4), sigma_hz=st.floats(1.0, 1e4))
    def test_intermittent_threshold_reproduces_the_unity_target(
            self, fidelity, n_shots, t2, omega_s_hz, sigma_hz):
        omega_s, sigma = TWO_PI * omega_s_hz, TWO_PI * sigma_hz
        th = compensation_threshold("intermittent", fidelity, n_shots=n_shots, t2=t2,
                                    omega_s=omega_s, sigma=sigma)
        target = gmin_at_optimum("intermittent", SensorModel(1.0, t2), EnsembleConfig(n_shots, 1),
                                 omega_s=omega_s, sigma=sigma).g_min
        c = contrast(SensorModel(fidelity, t2), TWO_PI / omega_s)
        g = gmin_gaussian_kernel(c, n_shots * th, small_g_curvature(omega_s, sigma))
        assert g == pytest.approx(target, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(scenario=st.sampled_from(["constant", "variance", "continuous_two_tone",
                                     "intermittent"]),
           n_shots=N_SHOTS, t2=T2S)
    def test_unity_fidelity_needs_exactly_one_sensor(self, scenario, n_shots, t2):
        th = compensation_threshold(scenario, 1.0, n_shots=n_shots, t2=t2,
                                    omega_s=TWO_PI * 2000, sigma=TWO_PI * 275)
        assert th == 1.0

    @pytest.mark.parametrize("scenario", ["constant", "variance", "continuous_two_tone",
                                          "intermittent"])
    # counts of about 1e310 and 1e400 (1/F^2 or N/(x C)^2); then a contrast of 0
    @pytest.mark.parametrize("fidelity", [1e-155, 1e-200, 5e-324])
    def test_count_past_the_float_range_is_rejected(self, scenario, fidelity):
        with pytest.raises(ValueError, match="overflows"):
            compensation_threshold(scenario, fidelity, n_shots=1000, t2=7.97e-3,
                                 omega_s=TWO_PI * 2000, sigma=TWO_PI * 275)


class TestThresholdJustBelowUnity:
    """A sensor a hair below F = 1 detects less than the unity sensor, so it
    needs at least the one sensor that F = 1 needs: the threshold's two
    sides are solved alike, and no solver error can push it below 1."""

    @settings(max_examples=60, deadline=None)
    @given(scenario=st.sampled_from(["variance", "continuous_two_tone", "intermittent"]),
           fidelity=st.floats(1e-15, 1e-8).map(lambda eps: 1.0 - eps),
           n_shots=st.integers(10**2, 10**6), t2=T2S,
           omega_s_hz=st.floats(300.0, 3e4), sigma_hz=st.floats(1.0, 1e4))
    @example(scenario="variance", fidelity=0.9999999999976753, n_shots=502_652, t2=14.5e-3,
             omega_s_hz=2000.0, sigma_hz=275.0)
    def test_threshold_is_at_least_one(self, scenario, fidelity, n_shots, t2, omega_s_hz,
                                       sigma_hz):
        th = compensation_threshold(scenario, fidelity, n_shots=n_shots, t2=t2,
                                    omega_s=TWO_PI * omega_s_hz, sigma=TWO_PI * sigma_hz)
        assert th >= 1.0


def _u_star(fidelity: float) -> float:
    """The variance optimum u = (t/T2)^2 in the noise-floor regime (NM ->
    infinity), the root of u = 2 (1 - F^2 e^{-u}) in [0.5, 2], solved here by
    scipy; the bracket excludes the spurious root u = 0 at F = 1."""
    return scipy_brentq(lambda u: u - 2.0 * (1.0 - fidelity**2 * math.exp(-u)),
                        0.5, 2.0, xtol=1e-14)


class TestExcessSensors:
    def test_matches_the_closed_form_on_fig3d_grid(self):
        # burst floor (1 - C^2)/C^2 at t1 over the continuous floor
        # (1 - C^2)/(u C)^2 at t = sqrt(u*) T2, each at F over at F = 1
        floor = lambda c, x: (1.0 - c * c) / (x * c) ** 2
        for f in (1.0, 0.9997, 0.2):
            u_f, u_1 = _u_star(f), _u_star(1.0)
            m_cont = floor(f * math.exp(-u_f / 2), u_f) / floor(math.exp(-u_1 / 2), u_1)
            for t1 in np.logspace(-3, 0, 30):
                m_burst = floor(f * math.exp(-t1**2 / 2), 1.0) / floor(math.exp(-t1**2 / 2), 1.0)
                assert excess_sensors(f, t1) == pytest.approx(m_burst / m_cont, rel=1e-12)

    def test_unit_fidelity_is_exactly_flat(self):
        for t1 in (1e-3, 0.03, 0.4, 2.0):
            assert excess_sensors(1.0, t1) == 1.0

    def test_short_burst_inverse_square_law(self):
        f = 0.2
        products = [excess_sensors(f, t1) * t1**2
                    for t1 in np.logspace(-3, -2, 10)]
        assert max(products) / min(products) - 1 < 1e-3

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            excess_sensors(0.0, 1e-3)
        with pytest.raises(ValueError):
            excess_sensors(0.5, 6.0)
        with pytest.raises(ValueError):  # both counts overflow: inf/inf
            excess_sensors(1e-154, 1.0)
        with pytest.raises(ValueError):  # C(t1) of the unity sensor rounds to 1
            excess_sensors(0.5, 1e-8)


class TestCompensationLimits:
    """The finite-N compensation count converges, as N^(-1/2), to the
    NM -> infinity limits that excess_sensors is built from."""

    TONES = {"omega_s": TWO_PI * 1000, "sigma": TWO_PI * 500}  # fig3's tones
    T2, N = 10e-3, 10**9

    @pytest.mark.parametrize("fidelity", [0.9, 0.5, 0.2, 0.1, 0.05])
    def test_burst_over_continuous_count_is_the_excess_factor(self, fidelity):
        kwargs = dict(n_shots=self.N, t2=self.T2)
        burst = compensation_threshold("intermittent", fidelity, **kwargs, **self.TONES)
        continuous = compensation_threshold("variance", fidelity, **kwargs)
        t1_over_t2 = TWO_PI / self.TONES["omega_s"] / self.T2
        assert burst / continuous == pytest.approx(excess_sensors(fidelity, t1_over_t2),
                                                   rel=1e-3)

    def test_variance_count_reaches_the_closed_form_limit(self):
        # e^2 u1^2 c1^2 / (4 (1 - c1^2)): the F -> 0 limit of M F^2, with c1
        # the unity sensor's contrast at its optimal time sqrt(u1) T2
        u1 = _u_star(1.0)
        c1 = math.exp(-u1 / 2.0)
        limit = math.e**2 * u1**2 * c1**2 / (4.0 * (1.0 - c1**2))
        assert limit == pytest.approx(1.19631, abs=1e-5)
        f = 1e-3
        th = compensation_threshold("variance", f, n_shots=self.N, t2=self.T2)
        assert th * f * f == pytest.approx(limit, rel=1e-4)


class TestQpnVarianceConsistency:
    def test_snr_uses_population_level_noise(self):
        # one hand-checked value ties exact_snr to its two ingredients
        sensor = SensorModel(0.9, 10e-3)
        ens = EnsembleConfig(1000, 1)
        spec = StochasticAmplitude(80.0)
        t_i = 5e-3
        p_g = mean_population(spec, sensor, t_i)
        p_0 = mean_population(StochasticAmplitude(0.0), sensor, t_i)
        expected = abs(p_g - p_0) / math.sqrt(qpn_variance(p_g, ens))
        assert_allclose(exact_snr(spec, sensor, ens, t_i), expected, rtol=1e-15)
