"""References the tests check the package against; no package code calls them.

The shot engine draws a two-tone signal's accrued phase as one normal per
shot, because the phase is a fixed linear combination of four i.i.d. normal
amplitudes. `sample_realizations`, `accrued_phases` and `signal_value` build
that phase from the four amplitudes instead, and `mc_gmin_crossing` finds the
SNR = 1 crossing by simulating shots. They import only public package names,
so the phase here shares no code with `signals.phase_variance_exact`.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from ramsey_sensing.sensitivity import SensitivityResult, mc_snr
from ramsey_sensing.sensor import EnsembleConfig, SensorModel
from ramsey_sensing.signals import (
    Constant,
    IntermittentTwoTone,
    SignalSpec,
    StochasticAmplitude,
    tone_angular_frequencies,
)


def sample_realizations(spec: SignalSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n realizations, frozen within a shot and independent across shots.

    Rows are coefficient vectors: empty for Constant, [B_s] for
    StochasticAmplitude, [A1, B1, A2, B2] for the two-tone classes.
    """
    if isinstance(spec, Constant):
        return np.empty((n, 0))
    if isinstance(spec, StochasticAmplitude):
        return rng.normal(0.0, spec.g, size=(n, 1))
    return rng.normal(0.0, spec.sigma, size=(n, 4))


def signal_value(spec: SignalSpec, c: np.ndarray, t: float) -> float:
    """B(t) for one coefficient row, defined only inside a burst."""
    if isinstance(spec, Constant):
        return spec.g
    if isinstance(spec, StochasticAmplitude):
        return float(c[0])
    if isinstance(spec, IntermittentTwoTone) and t > spec.t_sig:
        raise ValueError("signal does not exist beyond the burst")
    w1, w2 = tone_angular_frequencies(spec)
    return float(
        c[0] * math.sin(w1 * t)
        + c[1] * math.cos(w1 * t)
        + c[2] * math.sin(w2 * t)
        + c[3] * math.cos(w2 * t)
    )


def accrued_phases(spec: SignalSpec, coefficients: np.ndarray, t_i: float) -> np.ndarray:
    """Exact phi = integral of B over [0, t_i] for each realization row.

    A sin(wt) integrates to A (1 - cos w t_i)/w = A t_i (x/2) sinc^2(x/2)
    and B cos(wt) to B sin(w t_i)/w = B t_i sinc(x), with x = w t_i and
    sinc(x) = sin(x)/x; both forms hold at w = 0 too.
    """
    if not 0 < t_i <= sys.float_info.max:
        raise ValueError("t_i must be finite and > 0")
    if isinstance(spec, IntermittentTwoTone) and t_i > spec.t_sig:
        raise ValueError("t_i exceeds the burst duration t_sig")
    if isinstance(spec, Constant):
        return np.full(len(coefficients), spec.g * t_i)
    if isinstance(spec, StochasticAmplitude):
        return coefficients[:, 0] * t_i
    x = np.array(tone_angular_frequencies(spec)) * t_i
    # np.sinc(y) is sin(pi y)/(pi y)
    weights = np.column_stack([t_i * x / 2 * np.sinc(x / (2 * np.pi)) ** 2,
                               t_i * np.sinc(x / np.pi)])
    return coefficients @ weights.ravel()  # [A1, B1, A2, B2]


def mc_gmin_crossing(
    spec: SignalSpec,
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    t_i: float,
    rng,
    bracket_center: float,
    n_shots: int = 100_000,
    n_avg: int = 3,
) -> SensitivityResult:
    """Monte-Carlo SNR=1 crossing by geometric bisection.

    Starts from a [center/5, 5*center] bracket, bisects on mc_snr until
    hi/lo is within 1.01, and averages n_avg independent bisections
    geometrically to beat the shot noise of single runs.
    """
    if not (0 < bracket_center < math.inf):
        raise ValueError("bracket_center must be finite and > 0")
    crossings = []
    for _ in range(n_avg):
        lo, hi = bracket_center / 5.0, bracket_center * 5.0
        while hi / lo > 1.01:
            mid = math.sqrt(lo * hi)
            snr = mc_snr(dataclasses.replace(spec, g=mid), sensor, ensemble, t_i, rng, n_shots)
            if snr >= 1.0:
                hi = mid
            else:
                lo = mid
        crossings.append(math.sqrt(lo * hi))
    g = math.exp(sum(math.log(c) for c in crossings) / len(crossings))
    return SensitivityResult(g, "monte_carlo", True, t_i)
