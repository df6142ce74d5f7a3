"""Projective-measurement simulation of sensor ensembles.

One shot draws a single accrued phase shared by all M sensors (they see the
same field simultaneously) and then M independent projective outcomes, so
the recorded excited count is binomial with the shot's probability. The
phase comes straight from its exact distribution (`signals.sample_phases`:
one normal per shot, none for a constant signal), and a single sensor's
outcome is one uniform compared with p. The population estimate
p_hat = sum(k)/(N*M) is unbiased and its noise floor is the projection-noise
variance p(1-p)/(N*M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .io_utils import format_value
from .sensor import EnsembleConfig, SensorModel, excitation_probability
from .signals import (
    Constant,
    IntermittentTwoTone,
    SignalSpec,
    StochasticAmplitude,
    TwoToneStochastic,
    sample_phases,
)

__all__ = [
    "ShotTable",
    "PopulationEstimate",
    "simulate_shots",
    "estimate_population",
    "apply_readout_degradation",
    "excess_noise_channel",
    "write_shot_table",
]

# shots per uniform draw in simulate_shots: a 64 kB block stays in cache
_BLOCK = 8192


@dataclass(frozen=True)
class ShotTable:
    """Excited-sensor counts per shot plus the parameters that produced them."""

    counts: np.ndarray  # shape (N,), each in [0, M]
    spec: SignalSpec
    sensor: SensorModel
    ensemble: EnsembleConfig
    t_i: float
    seed_path: tuple[int, ...] = ()
    flip_prob: float = 0.0  # accumulated readout degradation

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (self.ensemble.n_shots,):
            raise ValueError("table length must equal n_shots")
        if counts.min(initial=0) < 0 or counts.max(initial=0) > self.ensemble.m_sensors:
            raise ValueError("counts must lie in [0, m_sensors]")


@dataclass(frozen=True)
class PopulationEstimate:
    p_hat: float
    std_err: float  # empirical error of the mean
    qpn_err: float  # projection-noise prediction at p_hat, for comparison
    n_shots: int
    n_sensors: int

    def __post_init__(self) -> None:
        if not (0 <= self.p_hat <= 1):
            raise ValueError("p_hat must be a probability")
        if self.std_err < 0:
            raise ValueError("std_err must be >= 0")


def simulate_shots(
    spec: SignalSpec,
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    t_i: float,
    rng: np.random.Generator,
    seed_path: tuple[int, ...] = (),
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
        return ShotTable(counts, spec, sensor, ensemble, t_i, seed_path)
    counts = phi.view(np.int64)
    u = np.empty(min(n, _BLOCK))
    for lo in range(0, n, _BLOCK):
        p = excitation_probability(sensor, t_i, phi[lo:lo + _BLOCK], out=phi[lo:lo + _BLOCK])
        np.less(rng.random(out=u[:len(p)]), p, out=counts[lo:lo + _BLOCK])
    return ShotTable(counts, spec, sensor, ensemble, t_i, seed_path)


def estimate_population(table: ShotTable) -> PopulationEstimate:
    """p_hat with its empirical error of the mean and the QPN prediction."""
    n, m = table.ensemble.n_shots, table.ensemble.m_sensors
    fractions = table.counts / m
    p_hat = float(fractions.mean())
    if n > 1:
        std_err = float(fractions.std(ddof=1) / math.sqrt(n))
    else:
        std_err = 0.0
    qpn_err = math.sqrt(p_hat * (1.0 - p_hat) / (n * m))
    return PopulationEstimate(p_hat, std_err, qpn_err, n, m)


def apply_readout_degradation(
    table: ShotTable, flip_prob: float, rng: np.random.Generator
) -> ShotTable:
    """Flip each recorded bit with probability flip_prob (single-sensor only).

    Two applications with probabilities a then b compose to a+b-2ab, and the
    effective contrast scales by (1-2*flip_prob).
    """
    if not (0 <= flip_prob <= 0.5):
        raise ValueError("flip_prob must be in [0, 1/2]")
    if table.ensemble.m_sensors != 1:
        raise ValueError("readout degradation is defined for single-sensor tables")
    if flip_prob == 0.0:
        return table
    flips = rng.random(table.counts.shape) < flip_prob
    counts = np.where(flips, 1 - table.counts, table.counts)
    combined = table.flip_prob + flip_prob - 2 * table.flip_prob * flip_prob
    return replace(table, counts=counts, flip_prob=combined)


def excess_noise_channel(
    est: PopulationEstimate, excess_factor: float, rng: np.random.Generator
) -> PopulationEstimate:
    """Emulate uncorrelated noise above the projection-noise floor.

    The reported error of the estimate grows by excess_factor and p_hat
    picks up matching zero-mean Gaussian jitter (std
    qpn_err*sqrt(excess_factor^2-1), clamped to [0,1]). excess_factor=1
    returns the estimate untouched.
    """
    if not (excess_factor >= 1 and math.isfinite(excess_factor)):
        raise ValueError("excess_factor must be finite and >= 1")
    if excess_factor == 1.0:
        return est
    jitter = rng.normal(0.0, est.qpn_err * math.sqrt(excess_factor**2 - 1.0))
    p_hat = min(1.0, max(0.0, est.p_hat + jitter))
    return replace(est, p_hat=p_hat, std_err=est.std_err * excess_factor)


def _spec_meta(spec: SignalSpec) -> dict[str, object]:
    if isinstance(spec, Constant):
        return {"signal": "constant", "g_rad_s": spec.g}
    if isinstance(spec, StochasticAmplitude):
        return {"signal": "stochastic_amplitude", "g_rad_s": spec.g}
    meta = {
        "signal": "two_tone" if isinstance(spec, TwoToneStochastic) else "intermittent_two_tone",
        "omega_s_rad_s": spec.omega_s,
        "g_rad_s": spec.g,
        "sigma_rad_s": spec.sigma,
        "convention": spec.convention.value,
    }
    if isinstance(spec, IntermittentTwoTone):
        meta["t_sig_s"] = spec.t_sig
    return meta


def write_shot_table(table: ShotTable, path) -> None:
    """CSV of (shot_index, count) preceded by '# key=value' metadata lines."""
    meta: dict[str, object] = dict(_spec_meta(table.spec))
    meta.update(
        fidelity=table.sensor.fidelity,
        t2_s=table.sensor.t2,
        theta_rad=table.sensor.theta,
        n_shots=table.ensemble.n_shots,
        m_sensors=table.ensemble.m_sensors,
        t_i_s=table.t_i,
        flip_prob=table.flip_prob,
        seed_path=":".join(str(p) for p in table.seed_path),
    )
    lines = [f"# {k}={format_value(v)}" for k, v in meta.items()]
    lines.append("shot_index,count")
    lines.extend(f"{i},{int(k)}" for i, k in enumerate(table.counts))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

