"""Signal classes, the accrued-phase functional, and its exact variance.

The four-amplitude accrued phase of tests/reference.py is checked against
direct numerical integration of the waveform, and the closed-form variance
against its Monte-Carlo variance and an independently coded tone-sum
formula. The one-draw phase sampler is checked against the closed-form
variance and the four-amplitude construction.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ramsey_sensing.signals import (
    Constant,
    IntermittentTwoTone,
    StochasticAmplitude,
    TwoToneStochastic,
    phase_variance_exact,
    sample_phases,
    small_g_curvature,
    tone_angular_frequencies,
)
from ramsey_sensing.streams import derive_stream
from reference import accrued_phases, sample_realizations, signal_value

TWO_PI = 2 * math.pi


class TestSpecValidation:
    def test_constant_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            Constant(-1.0)
        with pytest.raises(ValueError):
            Constant(math.nan)
        with pytest.raises(ValueError):
            Constant(10**400)  # an int past the float range

    def test_stochastic_amplitude_needs_a_finite_square(self):
        # the mean population's damping reads g^2
        StochasticAmplitude(1e154)
        for bad in (-1.0, math.nan, math.inf, 1e155, 1e160, np.float64(1e160), 10**200):
            with pytest.raises(ValueError):
                StochasticAmplitude(bad)

    def test_two_tone_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TwoToneStochastic(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            TwoToneStochastic(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            TwoToneStochastic(1.0, -1.0, 1.0)
        # ints past the float range, or whose square is
        with pytest.raises(ValueError):
            TwoToneStochastic(10**400, 1.0, 1.0)
        with pytest.raises(ValueError):
            TwoToneStochastic(1000.0, 1.0, 10**200)

    def test_burst_duration_window(self):
        omega = TWO_PI * 1000.0
        period = TWO_PI / omega
        with pytest.raises(ValueError):
            IntermittentTwoTone(omega, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            IntermittentTwoTone(omega, 1.0, 1.0, 2.0 * period * 1.001)
        # the two-period upper edge itself is allowed
        spec = IntermittentTwoTone(omega, 1.0, 1.0, 2.0 * period)
        assert spec.period == pytest.approx(1e-3, rel=1e-12)


class TestToneFrequencies:
    def test_full_split_places_tones_at_omega_plus_minus_g(self):
        spec = TwoToneStochastic(10.0, 3.0, 1.0)
        assert tone_angular_frequencies(spec) == (13.0, 7.0)

    def test_burst_places_its_tones_at_omega_plus_minus_g_too(self):
        spec = IntermittentTwoTone(10.0, 3.0, 1.0, 0.5)
        assert tone_angular_frequencies(spec) == (13.0, 7.0)

    def test_a_separation_read_as_w1_minus_w2_passes_half_of_it(self):
        w1, w2 = TWO_PI * 2290.0, TWO_PI * 1710.0
        spec = TwoToneStochastic((w1 + w2) / 2, (w1 - w2) / 2, 1.0)
        assert_allclose(tone_angular_frequencies(spec), (w1, w2), rtol=1e-15)


class TestSampling:
    def test_coefficient_shapes(self):
        rng = derive_stream(31, 10)
        assert sample_realizations(Constant(1.0), 5, rng).shape == (5, 0)
        assert sample_realizations(StochasticAmplitude(1.0), 5, rng).shape == (5, 1)
        assert sample_realizations(TwoToneStochastic(10.0, 1.0, 1.0), 5, rng).shape == (5, 4)
        one = sample_realizations(IntermittentTwoTone(10.0, 1.0, 1.0, 0.3), 1, rng)
        assert one.shape == (1, 4)

    def test_same_stream_key_reproduces_draws(self):
        spec = TwoToneStochastic(10.0, 1.0, 2.0)
        a = sample_realizations(spec, 100, derive_stream(31, 11))
        b = sample_realizations(spec, 100, derive_stream(31, 11))
        assert np.array_equal(a, b)
        c = sample_realizations(spec, 100, derive_stream(31, 12))
        assert not np.array_equal(a, c)

    def test_amplitudes_are_zero_mean_with_requested_std(self):
        sigma = 3.7
        draws = sample_realizations(
            TwoToneStochastic(10.0, 1.0, sigma), 20_000, derive_stream(31, 13)
        ).ravel()
        n = draws.size
        assert abs(draws.mean()) < 4 * sigma / math.sqrt(n)
        assert abs(draws.std() / sigma - 1) < 0.02


class TestSignalValue:
    def test_two_tone_matches_hand_built_quadrature_sum(self):
        spec = TwoToneStochastic(TWO_PI * 50, TWO_PI * 7, 1.0)
        w1, w2 = tone_angular_frequencies(spec)
        c = np.array([0.3, -1.2, 2.0, 0.7])
        for t in (0.0, 0.013, 0.4):
            expected = (
                c[0] * math.sin(w1 * t) + c[1] * math.cos(w1 * t)
                + c[2] * math.sin(w2 * t) + c[3] * math.cos(w2 * t)
            )
            assert_allclose(signal_value(spec, c, t), expected, rtol=1e-15)

    def test_constant_and_stochastic_values(self):
        assert signal_value(Constant(4.2), np.empty(0), 0.9) == 4.2
        assert signal_value(StochasticAmplitude(2.0), np.array([-1.3]), 0.1) == -1.3

    def test_burst_signal_undefined_past_burst_end(self):
        spec = IntermittentTwoTone(TWO_PI * 1000, 1.0, 1.0, 0.5e-3)
        c = np.ones(4)
        signal_value(spec, c, 0.5e-3)  # inside, fine
        with pytest.raises(ValueError):
            signal_value(spec, c, 0.6e-3)


def _phase_of_row(spec, row, t_i: float) -> float:
    """accrued_phases of a single coefficient row."""
    return float(accrued_phases(spec, np.asarray(row, dtype=float)[None, :], t_i)[0])


class TestAccruedPhase:
    """phi must equal the integral of B(t) over the window, exactly."""

    def test_matches_numerical_integration_of_waveform(self):
        spec = TwoToneStochastic(TWO_PI * 1000, TWO_PI * 180, TWO_PI * 500)
        rng = derive_stream(31, 20)
        for t_i in (0.21e-3, 1e-3, 2.7e-3):
            row = sample_realizations(spec, 1, rng)[0]
            ts = np.linspace(0.0, t_i, 20_001)
            vals = [signal_value(spec, row, float(t)) for t in ts]
            oracle = float(np.trapezoid(vals, ts))
            assert_allclose(_phase_of_row(spec, row, t_i), oracle, rtol=0,
                            atol=5e-7 * abs(oracle) + 1e-12)

    def test_burst_integral_matches_too(self):
        spec = IntermittentTwoTone(TWO_PI * 2000, TWO_PI * 300, TWO_PI * 275, 0.5e-3)
        row = sample_realizations(spec, 1, derive_stream(31, 21))[0]
        t_i = spec.period
        ts = np.linspace(0.0, t_i, 20_001)
        oracle = float(np.trapezoid([signal_value(spec, row, float(t)) for t in ts], ts))
        assert_allclose(_phase_of_row(spec, row, t_i), oracle, rtol=5e-7)

    def test_constant_and_stochastic_phases_are_linear_in_time(self):
        assert _phase_of_row(Constant(3.0), [], 0.25) == 0.75
        assert _phase_of_row(StochasticAmplitude(1.0), [1.7], 2.0) == 3.4

    def test_phase_is_linear_in_coefficients(self):
        spec = TwoToneStochastic(TWO_PI * 100, TWO_PI * 11, 1.0)
        c1 = np.array([1.0, 0.5, -0.25, 2.0])
        c2 = np.array([-0.7, 0.1, 1.1, 0.0])
        t_i = 3.3e-3
        lhs = _phase_of_row(spec, 2.0 * c1 - 3.0 * c2, t_i)
        rhs = 2.0 * _phase_of_row(spec, c1, t_i) - 3.0 * _phase_of_row(spec, c2, t_i)
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_batch_matches_per_row_evaluation(self):
        spec = TwoToneStochastic(TWO_PI * 1000, TWO_PI * 90, TWO_PI * 500)
        coeffs = sample_realizations(spec, 50, derive_stream(31, 22))
        t_i = 0.8e-3
        batch = accrued_phases(spec, coeffs, t_i)
        loop = [_phase_of_row(spec, row, t_i) for row in coeffs]
        # a batch and a one-row matrix product may order their sums differently
        assert_allclose(batch, loop, rtol=5e-15)

    def test_integration_window_validation(self):
        spec = IntermittentTwoTone(TWO_PI * 1000, 1.0, 1.0, 0.5e-3)
        with pytest.raises(ValueError):
            _phase_of_row(spec, np.ones(4), 0.0)
        with pytest.raises(ValueError):
            _phase_of_row(spec, np.ones(4), 0.6e-3)  # beyond the burst
        with pytest.raises(ValueError):
            accrued_phases(Constant(1.0), np.empty((3, 0)), -1.0)


class TestPhaseVariance:
    def test_matches_monte_carlo_variance(self):
        spec = TwoToneStochastic(TWO_PI * 1000, TWO_PI * 300, TWO_PI * 500)
        coeffs = sample_realizations(spec, 200_000, derive_stream(31, 30))
        for t_i in (0.37e-3, 1e-3, 2.3e-3):
            mc = float(accrued_phases(spec, coeffs, t_i).var())
            assert_allclose(mc, phase_variance_exact(spec, t_i), rtol=0.02)

    def test_matches_independent_tone_sum_formula(self):
        # Var = sigma^2 * sum over tones of ((1-cos w t)/w)^2 + (sin w t / w)^2
        spec = TwoToneStochastic(TWO_PI * 2000, TWO_PI * 275, TWO_PI * 137)
        w1, w2 = tone_angular_frequencies(spec)
        for t_i in (0.11e-3, 0.5e-3, 1.9e-3):
            expected = spec.sigma**2 * sum(
                ((1 - math.cos(w * t_i)) / w) ** 2 + (math.sin(w * t_i) / w) ** 2
                for w in (w1, w2)
            )
            assert_allclose(phase_variance_exact(spec, t_i), expected, rtol=1e-9)

    def test_zero_separation_rephases_at_integer_periods(self):
        spec = TwoToneStochastic(TWO_PI * 1000, 0.0, TWO_PI * 500)
        period = TWO_PI / spec.omega_s
        for n in (1, 2, 3, 7):
            t_n = n * period
            assert phase_variance_exact(spec, t_n) < 1e-30 * spec.sigma**2 * t_n**2

    def test_variance_scales_with_sigma_squared(self):
        a = TwoToneStochastic(TWO_PI * 1000, TWO_PI * 50, 1.0)
        b = TwoToneStochastic(TWO_PI * 1000, TWO_PI * 50, 3.0)
        t = 0.7e-3
        assert_allclose(phase_variance_exact(b, t), 9.0 * phase_variance_exact(a, t), rtol=1e-12)

    def test_rejects_non_two_tone_specs(self):
        with pytest.raises(TypeError):
            phase_variance_exact(Constant(1.0), 1.0)


class TestZeroFrequencyTone:
    # one tone sits at w = 0 when g = omega_s; its weights take the w -> 0
    # limit (0, t_i)
    OMEGA_S, SIGMA = TWO_PI * 2000, TWO_PI * 275

    @pytest.mark.parametrize("cls", [TwoToneStochastic, IntermittentTwoTone])
    def test_variance_is_finite_and_the_limit_of_nearby_tones(self, cls):
        t_i = 0.37e-3  # inside the one-period burst

        def spec(g):
            if cls is IntermittentTwoTone:
                return cls(self.OMEGA_S, g, self.SIGMA, TWO_PI / self.OMEGA_S)
            return cls(self.OMEGA_S, g, self.SIGMA)

        def variance(g):
            return phase_variance_exact(spec(g), t_i)

        g_0 = self.OMEGA_S
        assert 0.0 in tone_angular_frequencies(spec(g_0))
        v = variance(g_0)
        assert math.isfinite(v) and v > 0
        # the other tone moves too, so nearby values differ at first order
        for eps in (1e-5, -1e-5, 1e-8, -1e-8, 1e-11, -1e-11):
            assert_allclose(variance(g_0 * (1 + eps)), v, rtol=abs(eps))

    def test_a_tone_below_zero_acts_as_its_mirror(self):
        # g > omega_s puts the lower tone at omega_s - g < 0; its amplitudes are
        # symmetric, so it is the tone at g - omega_s: swapping the two fields
        for t_i in (0.11e-3, 0.5e-3, 1.9e-3):
            below = TwoToneStochastic(self.OMEGA_S, 1.5 * self.OMEGA_S, self.SIGMA)
            mirror = TwoToneStochastic(1.5 * self.OMEGA_S, self.OMEGA_S, self.SIGMA)
            assert_allclose(phase_variance_exact(below, t_i), phase_variance_exact(mirror, t_i),
                            rtol=1e-12)

    def test_accrued_phase_integrates_the_zero_tone_as_constant(self):
        spec = TwoToneStochastic(self.OMEGA_S, self.OMEGA_S, self.SIGMA)
        t_i = 0.37e-3
        w1, _ = tone_angular_frequencies(spec)
        # the w = 0 tone contributes B2 * t_i; A2 multiplies sin(0) = 0
        row = np.array([[0.3, -1.1, 2.0, 0.7]])
        expected = (0.3 * (1 - math.cos(w1 * t_i)) / w1 + -1.1 * math.sin(w1 * t_i) / w1
                    + 0.7 * t_i)
        assert_allclose(accrued_phases(spec, row, t_i), [expected], rtol=1e-12)


class TestSamplePhases:
    N = 100_000
    # a Gaussian sample variance has relative std sqrt(2/(N-1)); allow five
    REL_TOL = 5 * math.sqrt(2 / (N - 1))

    def test_constant_phase_is_exact_and_draws_nothing(self):
        rng = derive_stream(31, 40)
        assert np.array_equal(sample_phases(Constant(3.0), 4, 0.25, rng), np.full(4, 0.75))
        assert rng.random() == derive_stream(31, 40).random()

    def test_stochastic_amplitude_phase_is_g_t_gaussian(self):
        spec, t_i = StochasticAmplitude(TWO_PI * 50), 2e-3
        phis = sample_phases(spec, self.N, t_i, derive_stream(31, 41))
        var = (spec.g * t_i) ** 2
        assert abs(phis.mean()) < 5 * math.sqrt(var / self.N)
        assert abs(phis.var() / var - 1) < self.REL_TOL

    def test_two_tone_variance_matches_exact_and_four_amplitude_oracle(self):
        cases = [
            (TwoToneStochastic(TWO_PI * 1000, TWO_PI * 300, TWO_PI * 500), 0.37e-3),
            (TwoToneStochastic(TWO_PI * 1000, TWO_PI * 300, TWO_PI * 500), 2.3e-3),
            (TwoToneStochastic(TWO_PI * 2000, TWO_PI * 137.5, TWO_PI * 137), 1e-3),
            (IntermittentTwoTone(TWO_PI * 2000, TWO_PI * 290, TWO_PI * 275, 0.5e-3), 0.5e-3),
        ]
        for k, (spec, t_i) in enumerate(cases):
            var = phase_variance_exact(spec, t_i)
            fast = sample_phases(spec, self.N, t_i, derive_stream(31, 42, k))
            coeffs = sample_realizations(spec, self.N, derive_stream(31, 43, k))
            oracle = accrued_phases(spec, coeffs, t_i)
            assert abs(fast.mean()) < 5 * math.sqrt(var / self.N)
            assert abs(fast.var() / var - 1) < self.REL_TOL
            assert abs(oracle.var() / var - 1) < self.REL_TOL
            # two independent sample variances: the ratio's std is sqrt(2) times larger
            assert abs(fast.var() / oracle.var() - 1) < math.sqrt(2) * self.REL_TOL

    @pytest.mark.parametrize("spec, t_i", [
        (Constant(1e300), 1e10),
        (StochasticAmplitude(1e150), 1e160),
        (TwoToneStochastic(1.0, 1.0, 1e150), 1e10),
    ], ids=["constant", "stochastic", "two_tone"])
    def test_a_phase_scale_that_is_not_finite_is_rejected(self, spec, t_i):
        # g*t_i (or the phase std) overflows: every phase would be inf or NaN
        with pytest.raises(ValueError, match="phase scale"):
            sample_phases(spec, 10, t_i, derive_stream(31, 45))


class TestSmallGCurvature:
    def test_matches_exact_variance_at_small_separation(self):
        omega_s, sigma = TWO_PI * 1000.0, TWO_PI * 500.0
        g = omega_s / 1e4
        spec = TwoToneStochastic(omega_s, g, sigma)
        t1 = TWO_PI / omega_s
        kappa = small_g_curvature(omega_s, sigma)
        assert_allclose(phase_variance_exact(spec, t1) / (2 * g * g), kappa, rtol=1e-6)

    def test_closed_form_value(self):
        omega_s, sigma = TWO_PI * 2000.0, TWO_PI * 275.0
        kappa = small_g_curvature(omega_s, sigma)
        assert_allclose(kappa, 4 * math.pi**2 * sigma**2 / omega_s**4, rtol=1e-15)
