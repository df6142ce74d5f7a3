# Detecting the frequency separation of an intermittent two-tone signal.
#
# A signal at 2 kHz splits into two tones g apart and only arrives in
# half-millisecond bursts. One sensor integrates over a single burst,
# the contrast-loss estimator inverts the mean population, and the
# smallest resolvable g follows from where the estimates stop tracking
# the applied value.

import math

import numpy as np

from ramsey_sensing.estimators import (
    BiasScan,
    empirical_gmin,
    invert_frequency_separation,
)
from ramsey_sensing.montecarlo import estimate_population, simulate_shots
from ramsey_sensing.sensitivity import gmin_at_optimum
from ramsey_sensing.sensor import EnsembleConfig, SensorModel, contrast
from ramsey_sensing.signals import IntermittentTwoTone, phase_variance_exact, sample_phases
from ramsey_sensing.streams import derive_stream

TWO_PI = 2 * math.pi

OMEGA_S = TWO_PI * 2000.0
SIGMA = TWO_PI * 275.0
T1 = 0.5e-3              # burst = one period of the 2 kHz center
T2 = 7.97e-3
FIDELITY = 0.903 / math.exp(-(T1**2) / (2 * T2**2))  # contrast(T1) = 0.903
SEED = 7
REPS = 11

sensor = SensorModel(FIDELITY, T2)
ensemble = EnsembleConfig(1000, 1)

print(f"fringe contrast at the burst time: {contrast(sensor, T1):.4f}")
analytic = gmin_at_optimum("intermittent", sensor, ensemble, omega_s=OMEGA_S, sigma=SIGMA)
print(f"closed-form g_min: {analytic.g_min / TWO_PI:.1f} Hz "
      f"(validity={analytic.validity})")

# a shot's phase over one burst is Gaussian: its spread is what washes out
# the fringe, so the mean population carries g
spec = IntermittentTwoTone(OMEGA_S, TWO_PI * 240.0, SIGMA, T1)
phases = sample_phases(spec, 100_000, T1, derive_stream(SEED, 1))
print(f"phase std over one burst at g = 240 Hz: {phases.std():.4f} rad "
      f"(exact {math.sqrt(phase_variance_exact(spec, T1)):.4f})")

# scan applied separations across the closed-form threshold, a few
# repetitions each, and estimate g back from the mean population
print(f"\napplied vs estimated g, {REPS} repetitions of N=1000 shots")
print(f"{'g applied [Hz]':>15} {'defined':>8} {'median estimate [Hz]':>21}")
G_HZ = (0.0, 60.0, 120.0, 240.0, 480.0, 960.0)
p_hat = np.empty((len(G_HZ), REPS))
for gi, g_hz in enumerate(G_HZ):
    spec = IntermittentTwoTone(OMEGA_S, TWO_PI * g_hz, SIGMA, T1)
    # one call derives the streams (SEED, 0, gi, rep) of every repetition
    for rep, rng in enumerate(derive_stream(SEED, 0, gi, shape=(REPS,))):
        table = simulate_shots(spec, sensor, ensemble, T1, rng)
        p_hat[gi, rep] = estimate_population(table.counts, ensemble.m_sensors).p_hat
# the inversion reads the tones and the calibration, not g: one call for the scan
g_hat, reason = invert_frequency_separation(p_hat, sensor, spec)
for g_hz, row in zip(G_HZ, g_hat):
    defined = np.sort(row[~np.isnan(row)])
    med = defined[len(defined) // 2] / TWO_PI if len(defined) else float("nan")
    print(f"{g_hz:15.0f} {len(defined):>5}/{REPS} {med:21.1f}")

result = empirical_gmin(BiasScan(TWO_PI * np.array(G_HZ), g_hat, reason))
print(f"\nempirical g_min from this scan: {result.g_min / TWO_PI:.0f} Hz "
      f"(resolved={result.resolved})")
print("below the threshold most repetitions fall under the zero-signal "
      "baseline and are excluded; above it the median tracks the applied g")
