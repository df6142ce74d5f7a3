"""Shot engine: projective statistics, determinism, readout degradation, the
excess-noise channel, and shot-table round-trips."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ramsey_sensing.montecarlo import (
    PopulationEstimate,
    ShotTable,
    apply_readout_degradation,
    estimate_population,
    excess_noise_channel,
    simulate_shots,
    write_shot_table,
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


def _load_shot_table(path):
    """Counts and '# key=value' metadata of a shot-table CSV, checking its layout."""
    lines = path.read_text().splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    assert lines[len(meta)] == "shot_index,count"
    rows = np.loadtxt(path, delimiter=",", skiprows=len(meta) + 1, dtype=np.int64, ndmin=2)
    assert np.array_equal(rows[:, 0], np.arange(len(rows)))
    return rows[:, 1], meta


def _constant_table(n=40_000, seed_path=(41, 2)):
    return simulate_shots(
        Constant(TWO_PI * 30), SENSOR, EnsembleConfig(n, 1), 5e-3, derive_stream(*seed_path)
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

    def test_table_validation(self):
        ens = EnsembleConfig(4, 2)
        with pytest.raises(ValueError):
            ShotTable(np.array([0, 1, 2]), Constant(1.0), SENSOR, ens, 1e-3)
        with pytest.raises(ValueError):
            ShotTable(np.array([0, 1, 3, 0]), Constant(1.0), SENSOR, ens, 1e-3)


class TestEstimatePopulation:
    def test_hand_built_counts(self):
        ens = EnsembleConfig(4, 2)
        table = ShotTable(np.array([0, 1, 2, 1]), Constant(1.0), SENSOR, ens, 1e-3)
        est = estimate_population(table)
        assert est.p_hat == 0.5
        fractions = np.array([0.0, 0.5, 1.0, 0.5])
        assert_allclose(est.std_err, fractions.std(ddof=1) / 2.0, rtol=1e-15)
        assert_allclose(est.qpn_err, math.sqrt(0.25 / 8), rtol=1e-15)

    def test_single_shot_has_no_empirical_error(self):
        table = ShotTable(np.array([1]), Constant(1.0), SENSOR, EnsembleConfig(1, 2), 1e-3)
        assert estimate_population(table).std_err == 0.0

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            PopulationEstimate(1.4, 0.0, 0.0, 1, 1)
        with pytest.raises(ValueError):
            PopulationEstimate(0.5, -0.1, 0.0, 1, 1)


class TestProjectionNoiseStatistics:
    """The estimate must be unbiased with variance on the binomial floor."""

    def test_unbiased_and_on_the_qpn_floor(self):
        spec = Constant(TWO_PI * 30)
        p = mean_population(spec, SENSOR, 5e-3)
        reps, n = 300, 400
        rng = derive_stream(41, 0)
        ens = EnsembleConfig(n, 1)
        p_hats = np.array(
            [estimate_population(simulate_shots(spec, SENSOR, ens, 5e-3, rng)).p_hat
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
            [estimate_population(simulate_shots(spec, SENSOR, ens, t_i, rng)).p_hat
             for _ in range(reps)]
        )
        empirical = p_hats.var(ddof=1)
        assert empirical > 2.0 * p * (1 - p) / (n * m)
        assert 0.85 < empirical / predicted < 1.15


class TestReadoutDegradation:
    def test_zero_flip_is_the_identity_and_draws_nothing(self):
        table = _constant_table(n=100, seed_path=(41, 20))
        assert apply_readout_degradation(table, 0.0, None) is table

    def test_flip_probability_bounds(self):
        table = _constant_table(n=10, seed_path=(41, 21))
        for bad in (-0.01, 0.51):
            with pytest.raises(ValueError):
                apply_readout_degradation(table, bad, derive_stream(41, 22))

    def test_multi_sensor_tables_rejected(self):
        ens = EnsembleConfig(10, 2)
        table = simulate_shots(Constant(1.0), SENSOR, ens, 1e-3, derive_stream(41, 23))
        with pytest.raises(ValueError):
            apply_readout_degradation(table, 0.1, derive_stream(41, 24))

    def test_two_flips_compose(self):
        table = _constant_table(n=50, seed_path=(41, 25))
        once = apply_readout_degradation(table, 0.1, derive_stream(41, 26))
        twice = apply_readout_degradation(once, 0.2, derive_stream(41, 27))
        assert twice.flip_prob == 0.1 + 0.2 - 2 * 0.1 * 0.2

    def test_mean_moves_to_the_flipped_mixture(self):
        table = _constant_table()
        p = mean_population(table.spec, SENSOR, table.t_i)
        n = table.ensemble.n_shots
        for f in (0.1, 0.3):
            deg = apply_readout_degradation(table, f, derive_stream(41, 3))
            expected = f + (1 - 2 * f) * p
            tol = 4 * math.sqrt(expected * (1 - expected) / n)
            assert abs(estimate_population(deg).p_hat - expected) < tol


class TestExcessNoiseChannel:
    def test_unit_factor_returns_plain_estimate_without_drawing(self):
        est = estimate_population(_constant_table(n=200, seed_path=(41, 28)))
        assert excess_noise_channel(est, 1.0, None) is est

    def test_factor_below_one_rejected(self):
        est = estimate_population(_constant_table(n=10, seed_path=(41, 29)))
        with pytest.raises(ValueError):
            excess_noise_channel(est, 0.9, derive_stream(41, 30))

    def test_non_finite_factor_rejected(self):
        est = estimate_population(_constant_table(n=10, seed_path=(41, 29)))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                excess_noise_channel(est, bad, derive_stream(41, 30))

    def test_error_scales_and_population_jitters(self):
        est = estimate_population(_constant_table())
        noisy = excess_noise_channel(est, 2.0, derive_stream(41, 5))
        assert noisy.std_err == 2.0 * est.std_err
        assert noisy.p_hat != est.p_hat

    def test_jitter_is_zero_mean(self):
        est = estimate_population(_constant_table())
        shifts = [
            excess_noise_channel(est, 2.0, derive_stream(41, 4, k)).p_hat - est.p_hat
            for k in range(400)
        ]
        jitter_std = est.qpn_err * math.sqrt(3.0)  # sqrt(factor^2 - 1)
        assert abs(np.mean(shifts)) < 4 * jitter_std / math.sqrt(len(shifts))

    def test_jittered_population_stays_in_unit_interval(self):
        spec = Constant(0.0)
        sensor = SensorModel(0.999, 10e-3)  # baseline p close to 0
        table = simulate_shots(spec, sensor, EnsembleConfig(50, 1), 1e-5, derive_stream(41, 31))
        est = estimate_population(table)
        for k in range(50):
            jittered = excess_noise_channel(est, 40.0, derive_stream(41, 32, k))
            assert 0.0 <= jittered.p_hat <= 1.0


class TestShotTableIO:
    def test_round_trip_counts_and_metadata(self, tmp_path):
        spec = IntermittentTwoTone(TWO_PI * 2000, TWO_PI * 120, TWO_PI * 275, 0.5e-3)
        ens = EnsembleConfig(64, 1)
        table = simulate_shots(spec, SENSOR, ens, 0.5e-3, derive_stream(41, 33), seed_path=(41, 33))
        path = tmp_path / "table.csv"
        write_shot_table(table, path)
        counts, meta = _load_shot_table(path)
        assert np.array_equal(counts, table.counts)
        assert meta["signal"] == "intermittent_two_tone"
        assert float(meta["omega_s_rad_s"]) == spec.omega_s
        assert float(meta["t_sig_s"]) == spec.t_sig
        assert float(meta["fidelity"]) == SENSOR.fidelity
        assert meta["seed_path"] == "41:33"
        assert float(meta["flip_prob"]) == 0.0

    def test_signal_tags_cover_every_class(self, tmp_path):
        specs = {
            "constant": Constant(1.0),
            "stochastic_amplitude": StochasticAmplitude(1.0),
            "two_tone": TwoToneStochastic(TWO_PI * 1000, 1.0, 1.0),
        }
        ens = EnsembleConfig(8, 1)
        for tag, spec in specs.items():
            table = simulate_shots(spec, SENSOR, ens, 1e-4, derive_stream(41, 34))
            path = tmp_path / f"{tag}.csv"
            write_shot_table(table, path)
            _, meta = _load_shot_table(path)
            assert meta["signal"] == tag
