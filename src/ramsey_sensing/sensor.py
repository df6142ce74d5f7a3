"""Closed-form Ramsey sensor response.

Contrast decays as C(t) = F * exp(-t^2 / (2 T2^2)); a measurement at bias
phase theta excites with probability p = (1 - C(t) cos(theta + phi)) / 2,
which excitation_probability returns as a new value for a scalar or an
array phi. T2 and t are taken only where their squares stay in float range.
For the stochastic signal classes phi is exactly Gaussian, so the mean
population follows from <cos phi> = exp(-Var(phi)/2) with no approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import (
    Constant,
    IntermittentTwoTone,
    SignalSpec,
    StochasticAmplitude,
    TwoToneStochastic,
    phase_variance_exact,
)

__all__ = [
    "SensorModel",
    "EnsembleConfig",
    "contrast",
    "excitation_probability",
    "qpn_variance",
    "mean_population",
]


@dataclass(frozen=True)
class SensorModel:
    fidelity: float  # contrast scale at t=0, in (0, 1]
    t2: float  # Gaussian coherence time, s
    theta: float = 0.0  # bias phase, rad

    def __post_init__(self) -> None:
        if not (0 < self.fidelity <= 1):
            raise ValueError("fidelity must be in (0, 1]")
        # contrast divides by 2 t2^2, which must neither overflow nor underflow to 0
        if not (self.t2 > 0 and 0 < self.t2 * self.t2 < math.inf):
            raise ValueError("t2 must be finite and > 0, with t2^2 finite and nonzero")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


@dataclass(frozen=True)
class EnsembleConfig:
    n_shots: int  # population estimates average over N shots
    m_sensors: int = 1  # sensors measured in parallel per shot

    def __post_init__(self) -> None:
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
               for v in (self.n_shots, self.m_sensors)):
            raise ValueError("n_shots and m_sensors must be integers")
        if self.n_shots < 1 or self.m_sensors < 1:
            raise ValueError("n_shots and m_sensors must be >= 1")

    @property
    def total(self) -> int:
        return self.n_shots * self.m_sensors


def contrast(sensor: SensorModel, t: float) -> float:
    """Fringe contrast F * exp(-t^2/(2 T2^2)) at integration time t."""
    if not (t >= 0 and t * t < math.inf):
        raise ValueError("t must be finite and >= 0, with t^2 finite")
    return sensor.fidelity * math.exp(-(t**2) / (2 * sensor.t2**2))


def excitation_probability(sensor: SensorModel, t_i: float, phi) -> float | np.ndarray:
    """p = (1 - C(t_i) cos(theta + phi)) / 2; accepts scalar or array phi."""
    c = contrast(sensor, t_i)
    return 0.5 * (1.0 - c * np.cos(sensor.theta + phi))


def qpn_variance(p: float, ensemble: EnsembleConfig) -> float:
    """Projection-noise variance p(1-p)/(N*M) of the population estimate."""
    if not (0 <= p <= 1):
        raise ValueError("p must be a probability")
    return p * (1.0 - p) / ensemble.total


def mean_population(spec: SignalSpec, sensor: SensorModel, t_i: float) -> float:
    """Shot-averaged excitation probability under the given signal class."""
    c = contrast(sensor, t_i)
    if isinstance(spec, Constant):
        return 0.5 * (1.0 - c * math.cos(sensor.theta + spec.g * t_i))
    if isinstance(spec, StochasticAmplitude):
        damping = math.exp(-(spec.g**2) * t_i**2 / 2.0)
    elif isinstance(spec, (TwoToneStochastic, IntermittentTwoTone)):
        damping = math.exp(-phase_variance_exact(spec, t_i) / 2.0)
    else:
        raise TypeError(f"unknown signal spec {type(spec).__name__}")
    return 0.5 * (1.0 - c * math.cos(sensor.theta) * damping)
