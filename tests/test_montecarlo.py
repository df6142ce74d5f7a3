"""Shot engine: projective statistics, determinism, the float32 screen of
single-sensor outcomes, the row-wise population estimate, the law of
readout degradation on excited counts, and the excess-noise channel."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import binom, chi2, norm

from ramsey_sensing import montecarlo
from ramsey_sensing.montecarlo import (
    PopulationEstimate,
    _decide,
    apply_readout_degradation,
    estimate_population,
    excess_noise_channel,
    simulate_shots,
)
from ramsey_sensing.sensor import (
    EnsembleConfig,
    SensorModel,
    contrast,
    excitation_probability,
    mean_population,
)
from ramsey_sensing.signals import (
    Constant,
    IntermittentTwoTone,
    StochasticAmplitude,
    TwoToneStochastic,
    phase_variance_exact,
    sample_phases,
)
from ramsey_sensing.streams import derive_stream

TWO_PI = 2 * math.pi

SENSOR = SensorModel(0.9, 10e-3)


# the constant-signal tables the channel tests start from
CONST_SPEC, CONST_TI, CONST_N = Constant(TWO_PI * 30), 5e-3, 40_000


def _constant_table(n=CONST_N, seed_path=(41, 2)):
    return simulate_shots(
        CONST_SPEC, SENSOR, EnsembleConfig(n, 1), CONST_TI, derive_stream(*seed_path)
    )


class TestSimulateShots:
    def test_counts_shape_bounds_and_dtype(self):
        ens = EnsembleConfig(500, 3)
        table = simulate_shots(Constant(10.0), SENSOR, ens, 2e-3, derive_stream(41, 10))
        assert table.counts.shape == (500,)
        assert table.counts.dtype == np.int64
        assert table.counts.min() >= 0 and table.counts.max() <= 3

    def test_same_stream_key_gives_identical_tables(self):
        spec = TwoToneStochastic(TWO_PI * 1000, TWO_PI * 100, TWO_PI * 500)
        ens = EnsembleConfig(300, 2)
        a = simulate_shots(spec, SENSOR, ens, 1e-3, derive_stream(41, 11))
        b = simulate_shots(spec, SENSOR, ens, 1e-3, derive_stream(41, 11))
        assert np.array_equal(a.counts, b.counts)
        c = simulate_shots(spec, SENSOR, ens, 1e-3, derive_stream(41, 12))
        assert not np.array_equal(a.counts, c.counts)

    @pytest.mark.parametrize("m", [1, 3])
    def test_stream_holds_all_phases_then_all_outcomes(self, m):
        # 20001 shots span several uniform blocks and end on a partial one
        spec = TwoToneStochastic(TWO_PI * 1000, TWO_PI * 100, TWO_PI * 500)
        n, t_i = 20_001, 1e-3
        table = simulate_shots(spec, SENSOR, EnsembleConfig(n, m), t_i, derive_stream(41, 14))
        rng = derive_stream(41, 14)
        p = excitation_probability(SENSOR, t_i, sample_phases(spec, n, t_i, rng))
        expected = rng.random(n) < p if m == 1 else rng.binomial(m, p)
        assert table.counts.dtype == np.int64
        assert np.array_equal(table.counts, expected)

    @pytest.mark.parametrize("spec", [
        Constant(1.0),
        StochasticAmplitude(1.0),
        TwoToneStochastic(TWO_PI * 1000, 1.0, 1.0),
        IntermittentTwoTone(TWO_PI * 1000, 1.0, 1.0, 0.5e-3),
    ], ids=lambda spec: type(spec).__name__)
    def test_integration_window_validation(self, spec):
        bad = [0.0, -1e-3, math.nan, math.inf]
        if isinstance(spec, IntermittentTwoTone):
            bad.append(0.6e-3)  # beyond the burst
        for t_i in bad:
            with pytest.raises(ValueError):
                simulate_shots(spec, SENSOR, EnsembleConfig(10, 1), t_i, derive_stream(41, 13))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [1, 3])
    def test_a_phase_past_the_float_range_is_rejected(self, m):
        # the scale g*t_i = 1.69e308 is finite, but a standard normal above
        # 1.07 makes the phase overflow; 1000 shots all stay below with
        # probability 0.72^1000, so every stream hits one
        spec = StochasticAmplitude(1.3e154)
        for seed in range(5):
            with pytest.raises(ValueError, match="phase overflows"):
                simulate_shots(spec, SensorModel(0.5, 0.01), EnsembleConfig(1000, m), 1.3e154,
                               derive_stream(seed, 2))


@st.composite
def _signal_and_window(draw):
    """One spec of each class with g up to 1e6 rad/s and a t_i it allows."""
    kind = draw(st.sampled_from(["constant", "stochastic", "two_tone", "intermittent"]))
    g = draw(st.floats(0.0, 1e6))
    if kind in ("constant", "stochastic"):
        cls = Constant if kind == "constant" else StochasticAmplitude
        return cls(g), draw(st.floats(1e-4, 10.0))
    omega_s, sigma = draw(st.floats(1.0, 1e5)), draw(st.floats(1e-3, 1e6))
    if kind == "two_tone":
        return TwoToneStochastic(omega_s, g, sigma), draw(st.floats(1e-4, 10.0))
    t_sig = draw(st.floats(1e-3, 1.0)) * 2 * (TWO_PI / omega_s)
    return IntermittentTwoTone(omega_s, g, sigma, t_sig), draw(st.floats(1e-3, 1.0)) * t_sig


class TestFloat32Screen:
    """Single-sensor outcomes are the exact comparison u < p, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(signal=_signal_and_window(),
           sensor=st.builds(SensorModel, st.floats(0.01, 1.0), st.floats(1e-3, 100.0),
                            st.floats(-10.0, 10.0).filter(bool)),
           n=st.sampled_from([1, 8191, 8192, 8193, 20_001]) | st.integers(1, 20_000),
           seed=st.integers(0, 2**32 - 1))
    # phases near 1e7 rad: the screen decides nothing, so every block falls back
    @example(signal=(Constant(1e6), 10.0), sensor=SensorModel(1.0, 100.0, 0.5),
             n=20_001, seed=0)
    @example(signal=(StochasticAmplitude(1e6), 10.0), sensor=SensorModel(1.0, 100.0, 0.5),
             n=20_001, seed=1)
    def test_counts_equal_the_exact_comparison(self, signal, sensor, n, seed):
        spec, t_i = signal
        table = simulate_shots(spec, sensor, EnsembleConfig(n, 1), t_i,
                               np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        p = excitation_probability(sensor, t_i, sample_phases(spec, n, t_i, rng))
        expected = rng.random(n) < p
        assert np.array_equal(table.counts, expected)

    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("t_i", [1e-3, 1.0], ids=["C>0", "C=0"])
    def test_uniforms_next_to_the_exact_probability(self, magnitude, t_i):
        sensor = SensorModel(0.9, 10e-3, theta=0.25)  # C(1 s) underflows to 0
        rng = np.random.default_rng(int(magnitude * 10) + int(t_i))
        n = 4096
        phi = magnitude * rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        p = excitation_probability(sensor, t_i, phi)
        u = rng.random(n)
        u[::2] = p[::2] + rng.uniform(-1e-13, 1e-13, n // 2)  # within the float32 error
        u[::6] = p[::6]  # ties: u < p is False
        expected = u < p
        out = phi.copy()
        _decide(sensor, t_i, out, u, out.view(np.int64), np.empty(n, dtype=np.float32),
                np.empty(n))
        assert np.array_equal(out.view(np.int64), expected)

    def test_phases_beyond_the_screen_fall_back_block_by_block(self, monkeypatch):
        sizes = []

        def exact(sensor, t_i, phi):
            sizes.append(len(phi))
            return excitation_probability(sensor, t_i, phi)

        monkeypatch.setattr(montecarlo, "excitation_probability", exact)
        # 4e38 rad lies beyond float32, so no block is screened
        simulate_shots(Constant(4e38), SENSOR, EnsembleConfig(20_001, 1), 1.0,
                       derive_stream(41, 15))
        assert sizes == [8192, 8192, 3617]


class TestStreamBatches:
    """simulate_shots over R streams is the R tables each stream gives
    alone, flat in row order and bit for bit."""

    # the g = 0 burst over one center period: its phase std is ~1e-20 rad
    ZERO_BURST = (IntermittentTwoTone(TWO_PI * 2000, 0.0, TWO_PI * 275, 0.5e-3), 0.5e-3)

    @settings(max_examples=80, deadline=None)
    @given(signal=_signal_and_window() | st.just(ZERO_BURST), rows=st.integers(1, 12),
           # 1000 and 3000 do not divide 8192, and 8193 or more exceed it, so
           # rows span the screen's blocks
           n=st.sampled_from([1, 1000, 3000, 8191, 8193, 10_000]) | st.integers(1, 9000),
           m=st.just(1) | st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    @example(signal=(CONST_SPEC, CONST_TI), rows=12, n=1000, m=1, seed=0)
    @example(signal=ZERO_BURST, rows=11, n=1000, m=1, seed=7)
    def test_rows_equal_their_tables_simulated_alone(self, signal, rows, n, m, seed):
        spec, t_i = signal
        ens = EnsembleConfig(n, m)
        batch = simulate_shots(spec, SENSOR, ens, t_i, derive_stream(seed, 1, shape=(rows,)))
        alone = [simulate_shots(spec, SENSOR, ens, t_i, rng).counts
                 for rng in derive_stream(seed, 1, shape=(rows,))]
        assert batch.counts.dtype == np.int64 and batch.counts.shape == (rows * n,)
        assert np.array_equal(batch.counts, np.concatenate(alone))

    def test_an_unsized_iterable_of_streams_is_rejected(self):
        # a generator expression over a family yields its one re-keyed
        # generator three times: listed, it is one stream under the last key
        streams = (g for g in derive_stream(1, 2, shape=(3,)))
        with pytest.raises(ValueError, match="sized iterable"):
            simulate_shots(CONST_SPEC, SENSOR, EnsembleConfig(10, 1), CONST_TI, streams)

    @pytest.mark.parametrize("rng", [7, "ab", [derive_stream(1, 3), 7]])
    def test_anything_but_streams_is_rejected(self, rng):
        with pytest.raises(ValueError, match="sized iterable"):
            simulate_shots(CONST_SPEC, SENSOR, EnsembleConfig(10, 1), CONST_TI, rng)


def _reference_estimate(counts, m):
    """The per-table estimate as a plain loop: mean, std(ddof=1), QPN."""
    n = counts.shape[-1]
    fractions = counts / m
    p_hat = float(fractions.mean())
    std_err = float(fractions.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return p_hat, std_err, math.sqrt(p_hat * (1.0 - p_hat) / (n * m))


class TestEstimatePopulation:
    def test_hand_built_counts(self):
        est = estimate_population(np.array([0, 1, 2, 1]), 2)
        assert est.p_hat == 0.5
        fractions = np.array([0.0, 0.5, 1.0, 0.5])
        assert_allclose(est.std_err, fractions.std(ddof=1) / 2.0, rtol=1e-15)
        assert_allclose(est.qpn_err, math.sqrt(0.25 / 8), rtol=1e-15)

    def test_single_shot_has_no_empirical_error(self):
        assert estimate_population(np.array([1]), 2).std_err == 0.0
        assert (estimate_population(np.ones((3, 1), dtype=bool), 1).std_err == 0.0).all()

    def test_one_table_gives_floats_and_a_stack_gives_arrays(self):
        one = estimate_population(np.array([0, 1, 1]), 1)
        assert all(type(v) is float for v in (one.p_hat, one.std_err, one.qpn_err))
        stack = estimate_population(np.zeros((2, 3, 5), dtype=np.uint8), 1)
        for v in (stack.p_hat, stack.std_err, stack.qpn_err):
            assert v.shape == (2, 3)

    def test_bad_counts_rejected(self):
        for counts, m in (
            (np.array([0, 3, 1]), 2),  # above m
            (np.array([0, -1, 1]), 2),  # negative
            (np.array([0, 1]), 0),  # no sensors
            (np.array([0, 1]), 1.0),  # m not an integer
            (np.array([0, 1]), True),  # a bool is not an integer
            (np.array(1), 1),  # no shot axis
            (np.zeros((3, 0), dtype=bool), 1),  # no shots
            (np.array([0.5, 1.0]), 1),  # not integer counts
        ):
            with pytest.raises(ValueError):
                estimate_population(counts, m)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            PopulationEstimate(1.4, 0.0, 0.0)
        with pytest.raises(ValueError):
            PopulationEstimate(0.5, -0.1, 0.0)
        with pytest.raises(ValueError):
            PopulationEstimate(np.array([0.5, math.nan]), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            PopulationEstimate(np.array([0.5, 0.5]), np.array([0.1, -0.1]), np.zeros(2))

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 40), n=st.integers(1, 3) | st.integers(2, 1500),
           m=st.just(1) | st.integers(2, 9), dtype=st.sampled_from(["bool", "uint8", "int64"]),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_of_a_stack_match_their_tables_bit_for_bit(self, rows, n, m, dtype, seed):
        # stacks up to 40 rows of 1500 shots, reduced in one pass
        if dtype == "bool":
            m = 1
        counts = np.random.default_rng(seed).integers(0, m + 1, size=(rows, n)).astype(dtype)
        stack = estimate_population(counts, m)
        for r in range(rows):
            alone = estimate_population(counts[r], m)
            assert (stack.p_hat[r], stack.std_err[r], stack.qpn_err[r]) == (
                alone.p_hat, alone.std_err, alone.qpn_err)
            assert (alone.p_hat, alone.std_err, alone.qpn_err) == _reference_estimate(
                counts[r], m)


class TestProjectionNoiseStatistics:
    """The estimate must be unbiased with variance on the binomial floor."""

    def test_unbiased_and_on_the_qpn_floor(self):
        spec = Constant(TWO_PI * 30)
        p = mean_population(spec, SENSOR, 5e-3)
        reps, n = 300, 400
        rng = derive_stream(41, 0)
        ens = EnsembleConfig(n, 1)
        p_hats = np.array(
            [estimate_population(simulate_shots(spec, SENSOR, ens, 5e-3, rng).counts, 1).p_hat
             for _ in range(reps)]
        )
        assert abs(p_hats.mean() - p) < 4 * math.sqrt(p * (1 - p) / (reps * n))
        ratio = p_hats.var(ddof=1) / (p * (1 - p) / n)
        assert 0.85 < ratio < 1.15

    def test_shared_realization_inflates_multi_sensor_variance(self):
        # all M sensors see the same draw per shot, so Var(p_hat) picks up
        # (M-1) * Var_shot(p) over the naive binomial floor
        spec = TwoToneStochastic(TWO_PI * 1000, TWO_PI * 600, TWO_PI * 500)
        t_i, m, n, reps = 1.4e-3, 8, 200, 600
        p = mean_population(spec, SENSOR, t_i)
        v = phase_variance_exact(spec, t_i)
        c = contrast(SENSOR, t_i)
        var_shot = (c / 2) ** 2 * ((1 + math.exp(-2 * v)) / 2 - math.exp(-v))
        predicted = (p * (1 - p) + (m - 1) * var_shot) / (n * m)
        rng = derive_stream(41, 1)
        ens = EnsembleConfig(n, m)
        p_hats = np.array(
            [estimate_population(simulate_shots(spec, SENSOR, ens, t_i, rng).counts, m).p_hat
             for _ in range(reps)]
        )
        empirical = p_hats.var(ddof=1)
        assert empirical > 2.0 * p * (1 - p) / (n * m)
        assert 0.85 < empirical / predicted < 1.15


def _streams(*path, rows):
    return [derive_stream(*path, r) for r in range(rows)]


# the false-alarm rate of each statistical test of the flip channel's law
FLIP_ALPHA = 1e-3


def _untouched(rng, *path):
    """Whether rng, the stream of path, has drawn nothing yet."""
    return rng.random() == derive_stream(*path).random()


def _flipped_law(n, k, f):
    """The exact pmf over 0..n of k - Bin(k, f) + Bin(n - k, f): the excited
    outcomes that stay, Bin(k, 1 - f), plus the ground ones that flip up."""
    return np.convolve(binom.pmf(np.arange(k + 1), k, 1 - f),
                       binom.pmf(np.arange(n - k + 1), n - k, f))


class TestReadoutDegradation:
    N = 1000

    def test_zero_flip_is_the_identity_and_draws_nothing(self):
        excited = np.array([[0, 310, 1000], [7, 500, 999]])
        rng = derive_stream(41, 20)
        assert apply_readout_degradation(excited, self.N, 0.0, rng) is excited
        assert _untouched(rng, 41, 20)

    @pytest.mark.parametrize("n_shots", [N, np.uint64(N)])
    def test_draws_two_binomials_per_table_in_row_order(self, n_shots):
        # one stream serves a whole stack: per table, the excited outcomes
        # that flip down, then the ground ones that flip up
        excited = np.random.default_rng(41).integers(0, self.N + 1, (3, 4)).astype(np.uint16)
        before = excited.copy()
        flipped = apply_readout_degradation(excited, n_shots, 0.2, derive_stream(41, 26))
        assert flipped.dtype == np.int64 and flipped.shape == excited.shape
        assert np.array_equal(excited, before)  # the input is left as it was
        rng = derive_stream(41, 26)
        for index in np.ndindex(excited.shape):
            k = int(excited[index])
            down, up = rng.binomial(k, 0.2), rng.binomial(self.N - k, 0.2)
            assert flipped[index] == k - down + up

    @pytest.mark.parametrize("i, k, f", [
        (0, 0, 0.05), (1, 80, 0.05), (2, 500, 0.3), (3, 930, 0.3), (4, 1000, 0.5)])
    def test_flipped_count_has_the_mean_and_variance_of_its_law(self, i, k, f):
        # given k, the flipped count has mean k(1-f) + (N-k)f and variance
        # N f(1-f); each statistic holds at the false-alarm rate FLIP_ALPHA
        reps, n = 20_000, self.N
        flipped = apply_readout_degradation(np.full(reps, k), n, f, derive_stream(41, 21, i))
        mean, var = k * (1 - f) + (n - k) * f, n * f * (1 - f)
        z = (flipped.mean() - mean) / math.sqrt(var / reps)
        assert abs(z) <= norm.ppf(1 - FLIP_ALPHA / 2)
        stat = np.sum((flipped - flipped.mean()) ** 2) / var
        lo, hi = chi2.ppf([FLIP_ALPHA / 2, 1 - FLIP_ALPHA / 2], reps - 1)
        assert lo <= stat <= hi

    @pytest.mark.parametrize("i, k", [(0, 0), (1, 300), (2, 1000)])
    def test_two_flips_compose_to_one_at_a_plus_b_minus_2ab(self, i, k):
        # flipping at a, then at b, draws from the exact law of one flip at
        # a + b - 2ab: a chi-squared goodness of fit at FLIP_ALPHA
        reps, n, a, b = 20_000, self.N, 0.1, 0.2
        once = apply_readout_degradation(np.full(reps, k), n, a, derive_stream(41, 27, i))
        twice = apply_readout_degradation(once, n, b, derive_stream(41, 28, i))
        expected = reps * _flipped_law(n, k, a + b - 2 * a * b)
        observed = np.bincount(twice, minlength=n + 1)
        # counts whose expected number is below 5 pool into one bin per tail
        big = np.flatnonzero(expected >= 5)
        lo, hi = big[0], big[-1] + 1
        exp_bins = np.r_[expected[:lo].sum(), expected[lo:hi], expected[hi:].sum()]
        obs_bins = np.r_[observed[:lo].sum(), observed[lo:hi], observed[hi:].sum()]
        keep = exp_bins > 0
        stat = np.sum((obs_bins[keep] - exp_bins[keep]) ** 2 / exp_bins[keep])
        assert stat <= chi2.ppf(1 - FLIP_ALPHA, keep.sum() - 1)

    def test_mean_moves_to_the_flipped_mixture(self):
        k = int(_constant_table().counts.sum())
        p = mean_population(CONST_SPEC, SENSOR, CONST_TI)
        n = CONST_N
        for f in (0.1, 0.3):
            deg = apply_readout_degradation(k, n, f, derive_stream(41, 3))
            expected = f + (1 - 2 * f) * p
            tol = 4 * math.sqrt(expected * (1 - expected) / n)
            assert abs(deg / n - expected) < tol

    @pytest.mark.parametrize("flip", [0.0, 0.1])
    @pytest.mark.parametrize("change, match", [
        ({"excited": np.array([True, False])}, "integer excited counts"),
        ({"excited": np.array([3.0, 7.0])}, "integer excited counts"),
        ({"excited": np.array([3, None], dtype=object)}, "integer excited counts"),
        ({"excited": np.array([-1, 7])}, r"lie in \[0, n_shots\]"),
        ({"excited": np.array([3, 11])}, r"lie in \[0, n_shots\]"),
        ({"n_shots": 0}, "n_shots must be an integer"),
        ({"n_shots": -10}, "n_shots must be an integer"),
        ({"n_shots": 10.0}, "n_shots must be an integer"),
        ({"n_shots": True}, "n_shots must be an integer"),
        ({"n_shots": "10"}, "n_shots must be an integer"),
    ], ids=["bool", "float", "object", "negative", "above-n", "n-zero", "n-negative",
            "n-float", "n-bool", "n-str"])
    def test_bad_counts_and_shots_raise_before_any_draw(self, flip, change, match):
        rng = derive_stream(41, 22)
        args = {"excited": np.array([3, 7]), "n_shots": 10, "flip_prob": flip, "rng": rng,
                **change}
        with pytest.raises(ValueError, match=match):
            apply_readout_degradation(**args)
        assert _untouched(rng, 41, 22)

    @pytest.mark.parametrize("flip", [0.0, 0.1])
    def test_an_rng_that_is_not_one_generator_is_rejected(self, flip):
        rng = derive_stream(41, 22)
        for bad in (None, np.random.RandomState(0), derive_stream(41, 22, shape=(2,)), [rng]):
            with pytest.raises(ValueError, match="rng must be one numpy Generator"):
                apply_readout_degradation(np.array([3, 7]), 10, flip, bad)
        assert _untouched(rng, 41, 22)

    @pytest.mark.parametrize("bad", [-0.01, 0.51, 1.0, math.nan, math.inf, "0.1", None])
    def test_flip_probability_outside_half_interval_raises_before_any_draw(self, bad):
        rng = derive_stream(41, 22)
        with pytest.raises(ValueError, match="flip_prob must be in"):
            apply_readout_degradation(np.array([3, 7]), 10, bad, rng)
        assert _untouched(rng, 41, 22)


class TestExcessNoiseChannel:
    def test_unit_factor_returns_plain_estimate_without_drawing(self):
        est = estimate_population(_constant_table(n=200, seed_path=(41, 28)).counts, 1)

        def streams():
            raise AssertionError("no stream may be taken at factor 1")
            yield

        assert excess_noise_channel(est, 1.0, streams()) is est

    def test_factor_below_one_rejected(self):
        est = estimate_population(_constant_table(n=10, seed_path=(41, 29)).counts, 1)
        with pytest.raises(ValueError):
            excess_noise_channel(est, 0.9, [derive_stream(41, 30)])

    def test_non_finite_factor_rejected(self):
        est = estimate_population(_constant_table(n=10, seed_path=(41, 29)).counts, 1)
        # 1e160 squares past the float range, whatever its type
        for bad in (math.nan, math.inf, 1e160, np.float64(1e160), 10**200):
            with pytest.raises(ValueError):
                excess_noise_channel(est, bad, [derive_stream(41, 30)])

    def test_one_stream_per_row(self):
        est = estimate_population(np.zeros((3, 8), dtype=bool), 1)
        for rows in (2, 4):
            with pytest.raises(ValueError):
                excess_noise_channel(est, 2.0, _streams(41, 38, rows=rows))

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)), n=st.integers(1, 300),
           factor=st.just(1.0) | st.floats(1.0, 50.0), seed=st.integers(0, 2**32 - 1))
    def test_rows_of_a_stack_match_their_tables_bit_for_bit(self, shape, n, factor, seed):
        counts = np.random.default_rng(seed).random((*shape, n)) < 0.3
        keys = list(np.ndindex(shape))
        taken = []

        def streams():
            for key in keys:
                taken.append(key)
                yield derive_stream(41, 36, *key)

        stack = estimate_population(counts, 1)
        noisy = excess_noise_channel(stack, factor, streams())
        if factor == 1.0:
            assert noisy is stack and taken == []
            return
        assert taken == keys
        assert np.array_equal(noisy.qpn_err, stack.qpn_err)
        for key in keys:
            est = estimate_population(counts[key], 1)
            alone = excess_noise_channel(est, factor, [derive_stream(41, 36, *key)])
            assert (noisy.p_hat[key], noisy.std_err[key]) == (alone.p_hat, alone.std_err)
            # one normal from the table's own stream, clamped to [0, 1]
            jitter = derive_stream(41, 36, *key).normal(
                0.0, est.qpn_err * math.sqrt(factor**2 - 1.0))
            assert alone.p_hat == min(1.0, max(0.0, est.p_hat + jitter))
            assert alone.std_err == est.std_err * factor

    def test_error_scales_and_population_jitters(self):
        est = estimate_population(_constant_table().counts, 1)
        noisy = excess_noise_channel(est, 2.0, [derive_stream(41, 5)])
        assert noisy.std_err == 2.0 * est.std_err
        assert noisy.p_hat != est.p_hat

    def test_jitter_is_zero_mean(self):
        est = estimate_population(_constant_table().counts, 1)
        shifts = [
            excess_noise_channel(est, 2.0, [derive_stream(41, 4, k)]).p_hat - est.p_hat
            for k in range(400)
        ]
        jitter_std = est.qpn_err * math.sqrt(3.0)  # sqrt(factor^2 - 1)
        assert abs(np.mean(shifts)) < 4 * jitter_std / math.sqrt(len(shifts))

    def test_jittered_population_stays_in_unit_interval(self):
        spec = Constant(0.0)
        sensor = SensorModel(0.999, 10e-3)  # baseline p close to 0
        table = simulate_shots(spec, sensor, EnsembleConfig(50, 1), 1e-5, derive_stream(41, 31))
        est = estimate_population(table.counts, 1)
        for k in range(50):
            jittered = excess_noise_channel(est, 40.0, [derive_stream(41, 32, k)])
            assert 0.0 <= jittered.p_hat <= 1.0


class TestOneStreamPerTable:
    """The excess-noise channel takes an iterable of streams, one per table
    in row order; a bare Generator is a usage error even where the channel
    would draw nothing, and so is an item that is not a Generator, as it is
    in the shot draw."""

    CHANNELS = {
        "excess": lambda rngs, strength: excess_noise_channel(
            estimate_population(np.zeros((2, 8), dtype=bool), 1), 1.0 + strength, rngs),
    }

    @pytest.mark.parametrize("strength", [0, 1])
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    def test_a_bare_generator_is_rejected(self, channel, strength):
        with pytest.raises(ValueError, match="one stream per table"):
            self.CHANNELS[channel](derive_stream(41, 37), strength)

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    def test_an_item_that_is_not_a_stream_is_rejected(self, channel):
        with pytest.raises(ValueError, match="one stream per table"):
            self.CHANNELS[channel]([1, 2], 1)

    def test_simulate_shots_rejects_an_item_that_is_not_a_stream(self):
        # the shot draw takes one bare Generator, but a family's items are checked alike
        with pytest.raises(ValueError, match="sized iterable of streams"):
            simulate_shots(Constant(0.0), SensorModel(0.9, 10e-3), EnsembleConfig(8, 1),
                           1e-5, [derive_stream(41, 38), 2])


def _oracle_streams(seed, *path, shape):
    """One generator per index, built from numpy's SeedSequence alone."""
    return [np.random.Generator(np.random.Philox(np.random.SeedSequence(
        seed, spawn_key=(*path, *index)))) for index in np.ndindex(shape)]


class TestChannelsOnAStreamFamily:
    """Each channel run on a shaped derive_stream family gives what it gives
    table by table on generators built without derive_stream, so a fault in
    re-keying the family's one generator cannot hide on both sides."""

    SPEC, T_I = IntermittentTwoTone(TWO_PI * 2000, TWO_PI * 290, TWO_PI * 275, 0.5e-3), 0.5e-3
    MID_SENSOR = SensorModel(0.9, 10e-3, theta=math.pi / 2)  # p near 1/2

    # 8193 shots cross the screen's 8192-shot blocks
    @pytest.mark.parametrize("n, m", [(1000, 1), (8193, 1), (1000, 3)])
    def test_simulate_shots(self, n, m):
        ens = EnsembleConfig(n, m)
        batch = simulate_shots(self.SPEC, self.MID_SENSOR, ens, self.T_I,
                               derive_stream(43, 1, shape=(5,)))
        alone = [simulate_shots(self.SPEC, self.MID_SENSOR, ens, self.T_I, rng).counts
                 for rng in _oracle_streams(43, 1, shape=(5,))]
        assert np.array_equal(batch.counts, np.concatenate(alone))

    def test_excess_noise_channel(self):
        est = estimate_population(np.random.default_rng(1).random((3, 4, 500)) < 0.3, 1)
        batch = excess_noise_channel(est, 3.0, derive_stream(43, 3, shape=(3, 4)))
        for index, rng in zip(np.ndindex(3, 4), _oracle_streams(43, 3, shape=(3, 4))):
            alone = excess_noise_channel(
                PopulationEstimate(est.p_hat[index], est.std_err[index], est.qpn_err[index]),
                3.0, [rng])
            assert (batch.p_hat[index], batch.std_err[index]) == (alone.p_hat, alone.std_err)
