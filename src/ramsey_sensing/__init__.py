"""Quantum sensing of constant, stochastic, and burst signals with
finite-fidelity Ramsey sensors: analytic sensitivities, projective-measurement
Monte Carlo, estimators, and reproducible study pipelines.

The package root carries the study pipelines, the signal and sensor
models, the scenario sensitivity, the shot engine and the stream factory;
everything else is imported from its submodule.
"""

from .experiments import (
    run_experiment_replica,
    run_fidelity_degradation,
    run_fig2,
    run_fig3,
    write_report,
)
from .montecarlo import simulate_shots
from .sensitivity import gmin_at_optimum
from .sensor import EnsembleConfig, SensorModel
from .signals import (
    Constant,
    IntermittentTwoTone,
    StochasticAmplitude,
    TwoToneStochastic,
)
from .streams import derive_stream

__version__ = "0.1.0"

__all__ = [
    "Constant",
    "EnsembleConfig",
    "IntermittentTwoTone",
    "SensorModel",
    "StochasticAmplitude",
    "TwoToneStochastic",
    "derive_stream",
    "gmin_at_optimum",
    "run_experiment_replica",
    "run_fidelity_degradation",
    "run_fig2",
    "run_fig3",
    "simulate_shots",
    "write_report",
]
