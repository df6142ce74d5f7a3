"""Projective-measurement simulation of sensor ensembles.

One shot draws a single accrued phase shared by all M sensors (they see the
same field simultaneously) and then M independent projective outcomes, so
the recorded excited count is binomial with the shot's probability. The
phase comes straight from its exact distribution (`signals.sample_phases`:
one normal per shot, none for a constant signal), and a single sensor's
outcome is one uniform compared with p. The population estimate
p_hat = sum(k)/(N*M) is unbiased and its noise floor is the projection-noise
variance p(1-p)/(N*M).

A study that runs many tables of one size holds their counts as one stack
of shape (..., N), one table per row. The population estimate reduces the
last axis, and every Monte-Carlo channel takes one table or a stack
together with one stream per table in row order: row r draws only from its
own stream and gets exactly the bits its table would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .sensor import EnsembleConfig, SensorModel, excitation_probability
from .signals import SignalSpec, sample_phases

__all__ = [
    "ShotTable",
    "PopulationEstimate",
    "simulate_shots",
    "estimate_population",
    "apply_readout_degradation",
    "excess_noise_channel",
]

# shots per uniform draw in simulate_shots: a 64 kB block stays in cache
_BLOCK = 8192


@dataclass(frozen=True)
class ShotTable:
    """Excited-sensor counts per shot, int64 of shape (N,), each in [0, M].

    Only simulate_shots builds one. The counts stay wrapped because the
    benchmark's tracer (perfbench/spans.py) counts shots from the
    `counts` attribute of each simulate_shots result.
    """

    counts: np.ndarray


@dataclass(frozen=True)
class PopulationEstimate:
    """Estimate of one table (float fields) or of a stack of tables (arrays
    over the stack's leading axes)."""

    p_hat: float | np.ndarray
    std_err: float | np.ndarray  # empirical error of the mean
    qpn_err: float | np.ndarray  # projection-noise prediction at p_hat, for comparison

    def __post_init__(self) -> None:
        p_hat = np.asarray(self.p_hat)
        if not ((p_hat >= 0) & (p_hat <= 1)).all():
            raise ValueError("p_hat must be a probability")
        if not (np.asarray(self.std_err) >= 0).all():
            raise ValueError("std_err must be >= 0")


def simulate_shots(
    spec: SignalSpec,
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    t_i: float,
    rng: np.random.Generator,
) -> ShotTable:
    """Simulate N shots of M sensors; phase redrawn every shot.

    The stream is consumed as N phases, then N uniforms (M = 1) or N
    binomial counts (M > 1). For M = 1 the table allocates one N-element
    buffer: it holds the phases, then block by block their probabilities,
    then the counts drawn from them, so a large table costs no temporaries
    and runs the same whatever the allocator does with freed memory.
    """
    n, m = ensemble.n_shots, ensemble.m_sensors
    phi = sample_phases(spec, n, t_i, rng)
    if m > 1:
        counts = rng.binomial(m, excitation_probability(sensor, t_i, phi, out=phi))
        return ShotTable(counts)
    counts = phi.view(np.int64)
    u = np.empty(min(n, _BLOCK))
    for lo in range(0, n, _BLOCK):
        p = excitation_probability(sensor, t_i, phi[lo:lo + _BLOCK], out=phi[lo:lo + _BLOCK])
        np.less(rng.random(out=u[:len(p)]), p, out=counts[lo:lo + _BLOCK])
    return ShotTable(counts)


def estimate_population(counts, m_sensors: int) -> PopulationEstimate:
    """p_hat with its empirical error of the mean and the QPN prediction.

    counts holds one table, shape (N,), or a stack of tables, shape
    (..., N); the estimate reduces the last axis, so each row of a stack
    gets the bits its table gets alone. The fields are floats for one table
    and arrays of the leading shape for a stack. Rows are reduced a block at
    a time, so a large stack costs no full-size float temporaries.
    """
    counts = np.asarray(counts)
    if counts.ndim == 0 or counts.shape[-1] < 1:
        raise ValueError("counts need a last axis of at least one shot")
    if not (isinstance(m_sensors, (int, np.integer)) and m_sensors >= 1):
        raise ValueError("m_sensors must be an integer >= 1")
    if counts.size and (counts.min() < 0 or counts.max() > m_sensors):
        raise ValueError("counts must lie in [0, m_sensors]")
    n, m = counts.shape[-1], int(m_sensors)
    rows = counts.reshape(-1, n)
    p_hat = np.empty(len(rows))
    std = np.zeros(len(rows))
    step = max(1, _BLOCK // n)
    for lo in range(0, len(rows), step):
        fractions = rows[lo:lo + step] / m
        fractions.mean(axis=-1, out=p_hat[lo:lo + step])
        if n > 1:
            fractions.std(axis=-1, ddof=1, out=std[lo:lo + step])
    std_err = std / math.sqrt(n)
    qpn_err = np.sqrt(p_hat * (1.0 - p_hat) / (n * m))
    if counts.ndim == 1:
        return PopulationEstimate(float(p_hat[0]), float(std_err[0]), float(qpn_err[0]))
    shape = counts.shape[:-1]
    return PopulationEstimate(p_hat.reshape(shape), std_err.reshape(shape),
                              qpn_err.reshape(shape))


def _check_streams(rngs) -> None:
    if isinstance(rngs, np.random.Generator):
        raise ValueError("rngs must yield one stream per table, not be one stream")


def apply_readout_degradation(
    counts, flip_prob: float, rngs: Iterable[np.random.Generator]
) -> np.ndarray:
    """Flip each recorded single-sensor outcome with probability flip_prob.

    counts holds the bool outcomes of one table, shape (N,), or of a stack
    of tables, shape (..., N); a bool array cannot hold a multi-sensor
    count. rngs yields one stream per table in row order; row r draws its N
    uniforms from its own stream, so it flips exactly as its table would
    alone. Returns a new array; at flip_prob = 0 returns counts itself and
    takes nothing from rngs. Two applications with probabilities a then b
    compose to a+b-2ab, and the effective contrast scales by (1-2*flip_prob).
    """
    if not (0 <= flip_prob <= 0.5):
        raise ValueError("flip_prob must be in [0, 1/2]")
    counts = np.asarray(counts)
    if counts.dtype != np.bool_ or counts.ndim == 0:
        raise ValueError("readout degradation is defined for single-sensor outcomes, "
                         "given as a bool array")
    _check_streams(rngs)
    if flip_prob == 0.0:
        return counts
    out = counts.copy()
    rows = out.reshape(-1, out.shape[-1])
    u = np.empty(rows.shape[1])
    flips = np.empty(rows.shape[1], dtype=bool)
    for row, rng in zip(rows, rngs, strict=True):
        np.less(rng.random(out=u), flip_prob, out=flips)
        row ^= flips
    return out


def excess_noise_channel(
    est: PopulationEstimate, excess_factor: float, rngs: Iterable[np.random.Generator]
) -> PopulationEstimate:
    """Emulate uncorrelated noise above the projection-noise floor.

    The reported error of the estimate grows by excess_factor and p_hat
    picks up matching zero-mean Gaussian jitter (std
    qpn_err*sqrt(excess_factor^2-1), clamped to [0,1]). est is the estimate
    of one table or of a stack; rngs yields one stream per table in row
    order, and row r draws its one normal from its own stream.
    excess_factor=1 returns est itself and takes nothing from rngs.
    """
    if not (excess_factor >= 1 and math.isfinite(excess_factor)):
        raise ValueError("excess_factor must be finite and >= 1")
    _check_streams(rngs)
    if excess_factor == 1.0:
        return est
    scale = math.sqrt(excess_factor**2 - 1.0)
    jitter = [rng.normal(0.0, q * scale)
              for rng, q in zip(rngs, np.ravel(est.qpn_err), strict=True)]
    p_hat = np.clip(est.p_hat + np.reshape(jitter, np.shape(est.p_hat)), 0.0, 1.0)
    return replace(est, p_hat=p_hat, std_err=est.std_err * excess_factor)
