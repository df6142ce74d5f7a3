"""Show the shot engine sitting on the projection-noise floor."""

import math

import numpy as np

from ramsey_sensing.montecarlo import (
    estimate_population,
    excess_noise_channel,
    simulate_shots,
)
from ramsey_sensing.sensor import (
    EnsembleConfig,
    SensorModel,
    excitation_probability,
)
from ramsey_sensing.signals import Constant
from ramsey_sensing.streams import derive_stream

SEED = 3
REPS = 400

sensor = SensorModel(0.9, 10e-3)
spec = Constant(2 * math.pi * 40.0)
t_i = 5e-3
p = float(excitation_probability(sensor, t_i, spec.g * t_i))

print("empirical std of p_hat vs the projection-noise prediction")
print(f"{'N':>6} {'M':>3} {'measured':>10} {'qpn':>10} {'ratio':>7}")
SIZES = [(100, 1), (400, 1), (1600, 1), (400, 4)]
for (n, m), rng in zip(SIZES, derive_stream(SEED, 0, shape=(len(SIZES),))):
    ensemble = EnsembleConfig(n, m)
    p_hats = [
        estimate_population(simulate_shots(spec, sensor, ensemble, t_i, rng).counts, m).p_hat
        for _ in range(REPS)
    ]
    measured = float(np.std(p_hats, ddof=1))
    qpn = math.sqrt(p * (1 - p) / ensemble.total)
    print(f"{n:6d} {m:3d} {measured:10.5f} {qpn:10.5f} {measured / qpn:7.3f}")

# an excess-noise channel lifts the floor by a known factor
factor = 1.5
ensemble = EnsembleConfig(400, 1)
rng = derive_stream(SEED, 1)
jit = derive_stream(SEED, 2)
p_hats = [
    excess_noise_channel(estimate_population(
        simulate_shots(spec, sensor, ensemble, t_i, rng).counts, 1), factor, [jit]).p_hat
    for _ in range(REPS)
]
measured = float(np.std(p_hats, ddof=1))
qpn = math.sqrt(p * (1 - p) / ensemble.total)
print(f"\nwith a {factor}x excess-noise channel: measured/qpn = "
      f"{measured / qpn:.3f} (expect ~{factor})")
