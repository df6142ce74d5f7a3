"""Walk through the closed-form sensitivity scalings.

Prints how the minimum detectable signal degrades with fidelity for the
constant and variance scenarios, where the optimal integration time sits,
and how many degraded sensors buy back a perfect sensor's sensitivity.
"""

import math

from ramsey_sensing.sensitivity import (
    compensation_threshold,
    continuous_optimal_u,
    gmin_constant,
    gmin_variance,
    optimal_integration_time,
)
from ramsey_sensing.sensor import EnsembleConfig, SensorModel

T2 = 10e-3
ENSEMBLE = EnsembleConfig(1000, 1)

print("minimum detectable signal vs fidelity (N=1000, M=1, T2=10 ms)")
print(f"{'F':>5} {'constant g_min/2pi [Hz]':>24} {'variance g_min/2pi [Hz]':>24}")
for f in (1.0, 0.8, 0.5, 0.2, 0.1):
    sensor = SensorModel(f, T2)
    g_c = gmin_constant(sensor, ENSEMBLE, T2).g_min
    t_opt = optimal_integration_time("variance", sensor, ENSEMBLE)
    g_v = gmin_variance(sensor, ENSEMBLE, t_opt).g_min
    print(f"{f:5.2f} {g_c / (2 * math.pi):24.3f} {g_v / (2 * math.pi):24.2f}")

# the constant scenario loses sensitivity exactly as 1/F, the variance
# scenario more slowly (~1/sqrt(F) at small F)
g1 = gmin_constant(SensorModel(1.0, T2), ENSEMBLE, T2).g_min
g5 = gmin_constant(SensorModel(0.5, T2), ENSEMBLE, T2).g_min
print(f"\nconstant-signal ratio g_min(F=0.5)/g_min(F=1) = {g5 / g1:.6f} (expect 2)")

print("\noptimal integration times (F=1)")
t_c = optimal_integration_time("constant", SensorModel(1.0, T2), ENSEMBLE)
t_v = optimal_integration_time("variance", SensorModel(1.0, T2), ENSEMBLE)
print(f"  constant: t_opt = {t_c / T2:.4f} T2")
print(f"  variance: t_opt = {t_v / T2:.4f} T2  "
      f"(large-NM limit sqrt(u) T2 = {math.sqrt(continuous_optimal_u(1.0)):.4f} T2; "
      f"sqrt(2) T2 = {math.sqrt(2):.4f} T2 is the small-F limit)")

print("\nsensors needed to match one F=1 sensor")
print(f"{'F':>5} {'constant':>9} {'variance':>9} {'variance threshold':>19}")
for f in (0.9, 0.7, 0.5, 0.3, 0.1):
    m_c = math.ceil(compensation_threshold("constant", f, n_shots=1000, t2=T2))
    th = compensation_threshold("variance", f, n_shots=1000, t2=T2)
    m_v = math.ceil(th)
    print(f"{f:5.2f} {m_c:9d} {m_v:9d} {th:19.2f}")
print("\nconstant compensation is exactly ceil(1/F^2); the variance count "
      "needs a little more, up to 1.196/F^2 as N*M grows")
