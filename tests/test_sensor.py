"""Sensor response model: contrast decay, excitation probability, projection
noise, and the closed-form mean population for each signal class."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ramsey_sensing.montecarlo import estimate_population, simulate_shots
from ramsey_sensing.sensor import (
    EnsembleConfig,
    SensorModel,
    contrast,
    excitation_probability,
    mean_population,
    qpn_variance,
)
from ramsey_sensing.signals import (
    Constant,
    IntermittentTwoTone,
    StochasticAmplitude,
    TwoToneStochastic,
    phase_variance_exact,
)
from ramsey_sensing.streams import derive_stream

TWO_PI = 2 * math.pi


class TestSensorModel:
    def test_fidelity_bounds(self):
        SensorModel(1.0, 1.0)
        for bad in (0.0, -0.1, 1.01, math.nan):
            with pytest.raises(ValueError):
                SensorModel(bad, 1.0)

    def test_t2_and_theta_validation(self):
        # an int past the float range is rejected as its float would be
        for t2, theta in ((0.0, 0.0), (math.inf, 0.0), (10**200, 0.0),
                          (1.0, math.nan), (1e-2, 10**400)):
            with pytest.raises(ValueError):
                SensorModel(0.9, t2, theta)

    def test_ensemble_counts_positive(self):
        assert EnsembleConfig(1000, 4).total == 4000
        with pytest.raises(ValueError):
            EnsembleConfig(0, 1)
        with pytest.raises(ValueError):
            EnsembleConfig(10, 0)

    def test_ensemble_counts_must_be_integers(self):
        assert EnsembleConfig(np.int64(10), np.int64(2)).total == 20
        for n, m in ((10.5, 1), (10, 1.5), (1000.0, 1), ("10", 1),
                     (True, 1), (10, True), (True, True)):
            with pytest.raises(ValueError):
                EnsembleConfig(n, m)


class TestContrast:
    def test_frozen_value(self):
        assert_allclose(
            contrast(SensorModel(0.91, 7.97e-3), 0.5e-3), 0.9082110116268017, rtol=1e-12
        )

    def test_starts_at_fidelity_and_decays(self):
        s = SensorModel(0.77, 4e-3)
        assert contrast(s, 0.0) == 0.77
        ts = np.linspace(0.0, 20e-3, 40)
        cs = [contrast(s, float(t)) for t in ts]
        assert all(a > b for a, b in zip(cs, cs[1:]))

    def test_gaussian_envelope(self):
        s = SensorModel(1.0, 3e-3)
        assert_allclose(contrast(s, 3e-3), math.exp(-0.5), rtol=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            contrast(SensorModel(0.9, 1.0), -1e-6)

    def test_a_time_whose_square_leaves_the_float_range_is_rejected(self):
        for t in (math.inf, 1e155, 10**200):
            with pytest.raises(ValueError):
                contrast(SensorModel(0.9, 1.0), t)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            contrast(SensorModel(0.9, 1.0), t)


class TestExcitationProbability:
    def test_fringe_extremes(self):
        s = SensorModel(0.8, 1.0)
        assert excitation_probability(s, 0.0, 0.0) == pytest.approx(0.1)
        assert excitation_probability(s, 0.0, math.pi) == pytest.approx(0.9)

    def test_accepts_phase_arrays(self):
        s = SensorModel(0.9, 1.0, theta=0.3)
        phis = np.linspace(-4, 4, 101)
        p = excitation_probability(s, 0.2, phis)
        assert p.shape == phis.shape
        c = contrast(s, 0.2)
        assert p.min() >= (1 - c) / 2 - 1e-15
        assert p.max() <= (1 + c) / 2 + 1e-15

    def test_half_fringe_complementarity(self):
        s0 = SensorModel(0.85, 1.0, theta=0.7)
        s1 = SensorModel(0.85, 1.0, theta=0.7 + math.pi)
        for phi in (-1.1, 0.0, 2.5):
            total = excitation_probability(s0, 0.4, phi) + excitation_probability(s1, 0.4, phi)
            assert_allclose(total, 1.0, rtol=1e-15)


class TestQpnVariance:
    def test_frozen_value(self):
        assert_allclose(qpn_variance(0.0485, EnsembleConfig(1000, 1)), 4.614775e-05, rtol=1e-12)

    def test_only_total_count_matters(self):
        assert qpn_variance(0.3, EnsembleConfig(100, 6)) == qpn_variance(0.3, EnsembleConfig(600, 1))

    def test_rejects_non_probability(self):
        with pytest.raises(ValueError):
            qpn_variance(1.2, EnsembleConfig(10, 1))


class TestMeanPopulation:
    def test_constant_signal_fringe(self):
        s = SensorModel(0.9, 10e-3, theta=0.4)
        spec = Constant(TWO_PI * 40)
        t = 3e-3
        expected = 0.5 * (1 - contrast(s, t) * math.cos(0.4 + spec.g * t))
        assert_allclose(mean_population(spec, s, t), expected, rtol=1e-15)

    def test_stochastic_shift_damps_gaussianly(self):
        s = SensorModel(0.9, 10e-3)
        g, t = TWO_PI * 55, 4e-3
        expected = 0.5 * (1 - contrast(s, t) * math.exp(-(g * t) ** 2 / 2))
        assert_allclose(mean_population(StochasticAmplitude(g), s, t), expected, rtol=1e-15)

    def test_two_tone_uses_exact_phase_variance(self):
        s = SensorModel(0.903 / math.exp(-(0.5e-3) ** 2 / (2 * 7.97e-3**2)), 7.97e-3)
        spec = IntermittentTwoTone(TWO_PI * 2000, TWO_PI * 300, TWO_PI * 275, 0.5e-3)
        t1 = spec.period
        expected = 0.5 * (1 - contrast(s, t1) * math.exp(-phase_variance_exact(spec, t1) / 2))
        assert_allclose(mean_population(spec, s, t1), expected, rtol=1e-15)

    def test_zero_separation_baseline_frozen_value(self):
        # the same sensor at g=0 sits on the bare contrast: p = (1-0.903)/2
        s = SensorModel(0.903 / math.exp(-(0.5e-3) ** 2 / (2 * 7.97e-3**2)), 7.97e-3)
        spec = IntermittentTwoTone(TWO_PI * 2000, 0.0, TWO_PI * 275, 0.5e-3)
        assert_allclose(mean_population(spec, s, 0.5e-3), 0.0485, rtol=1e-12)

    def test_mc_population_concordance_smoke(self):
        s = SensorModel(0.85, 10e-3)
        spec = TwoToneStochastic(TWO_PI * 1000, TWO_PI * 200, TWO_PI * 500)
        shots = 40_000
        for i, t in enumerate((0.6e-3, 1.7e-3)):
            table = simulate_shots(spec, s, EnsembleConfig(shots, 1), t, derive_stream(31, 40, i))
            p_hat = estimate_population(table.counts, 1).p_hat
            p = mean_population(spec, s, t)
            assert abs(p_hat - p) < 4 * math.sqrt(p * (1 - p) / shots)

    @pytest.mark.parametrize("spec, t_i", [
        (Constant(1.0), math.nan),
        (StochasticAmplitude(1.0), math.nan),
        (StochasticAmplitude(1.0), math.inf),
    ])
    def test_non_finite_time_rejected(self, spec, t_i):
        # never a nan population, nor the t -> inf limit 1/2
        with pytest.raises(ValueError, match="finite"):
            mean_population(spec, SensorModel(0.9, 1.0), t_i)

    def test_unknown_spec_type_rejected(self):
        with pytest.raises(TypeError):
            mean_population(object(), SensorModel(0.9, 1.0), 0.1)


# magnitudes at and past the ends of the float range, where a square or a
# product underflows to 0 or overflows (the CLI's grid in test_cli.py)
EXTREMES = (1e-320, 1e-200, 1e-160, 1e160, 1e300)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make", [
    Constant,
    StochasticAmplitude,
    lambda x: TwoToneStochastic(1e3, x, 1e2),
    lambda x: TwoToneStochastic(1e3, 1e2, x),
], ids=["constant-g", "stochastic-g", "two_tone-g", "two_tone-sigma"])
def test_extreme_values_give_a_probability_or_a_value_error(make):
    # a signal value and a t_i over a usable value and each extreme: the
    # model and the shot engine return probabilities and counts, or raise
    # ValueError where they take the value, never an OverflowError or a
    # NaN probability
    sensor = SensorModel(0.5, 0.01)
    # t_i = 1e10 s has a finite square, so only the phase g*t_i can overflow
    for x, t_i in itertools.product((10.0, *EXTREMES), (1e-3, 1e10, *EXTREMES)):
        try:
            spec = make(x)
        except ValueError:
            continue
        try:
            p = mean_population(spec, sensor, t_i)
        except ValueError:
            p = None
        assert p is None or 0 <= p <= 1
        try:
            counts = simulate_shots(spec, sensor, EnsembleConfig(4, 1), t_i,
                                    derive_stream(31, 44)).counts
        except ValueError:
            continue
        assert ((counts == 0) | (counts == 1)).all()

