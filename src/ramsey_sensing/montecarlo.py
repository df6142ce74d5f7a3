"""Projective-measurement simulation of sensor ensembles.

One shot draws a single accrued phase shared by all M sensors (they see the
same field simultaneously) and then M independent projective outcomes, so
the recorded excited count is binomial with the shot's probability. The
phase comes straight from its exact distribution (as `signals.sample_phases`:
one normal per shot, none for a constant signal), and a single sensor's
outcome is one uniform compared with p. The population estimate
p_hat = sum(k)/(N*M) is unbiased and its noise floor is the projection-noise
variance p(1-p)/(N*M).

A single sensor's outcome u < p is decided by a float32 screen with an
exact fallback. The engine rounds x = theta + phi to float32, takes numpy's
float32 cosine there (vectorized, where the float64 cosine may run as
scalar libm) and forms d ~ u - p in float64 from the same uniforms. Over a
block, |d - (u - p)| stays below

    delta = C/2 * (2^-20 + 2^-22 * max|x|) + 2^-40:

the first term bounds the float32 cosine's error (at most 1.19 * 2^-24
measured for |x| from 1e-3 to 3e38), the second the rounding of x to
float32 (at most 2^-24 |x|, and cos is 1-Lipschitz), the last the float64
roundings, each with margin. So wherever |d| > delta the sign of d is the
outcome, and every other shot (about one in a million) is decided by the
exact float64 p of `sensor.excitation_probability`, as is a whole block
that holds a NaN phase or one beyond float32's range. The outcomes are
therefore the bits of the exact comparison, and the stream is consumed
exactly as without the screen.

Many tables of one setting are simulated in one call, one stream per table,
each taken only after the last is spent on its own table's phases and
uniforms. The screen runs over 8192-shot blocks of the flat buffer that
holds them all, so small tables pay the per-call cost of numpy once per
block, not once per table. Reshaped to (R, N), or held in any stack of
shape (..., N), the counts have one table per row. The population estimate
reduces the last axis in one pass, and the excess-noise channel takes one
table or a stack with one stream per table, in row order: row r draws only
from its own stream and gets exactly the bits its table gets alone. The
readout-flip channel acts on what a study keeps of a single-sensor table,
its excited count: flipping each outcome with probability f takes a count k
to k - Bin(k, f) + Bin(N - k, f), so it draws two binomials per table, all
from one stream in row order, not one uniform per shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Real
from typing import Iterable, Iterator, Sized

import numpy as np

from .sensor import EnsembleConfig, SensorModel, contrast, excitation_probability
from .signals import SignalSpec, _fill_phases, _phase_scale

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
_F32_MAX = float(np.finfo(np.float32).max)
# the usage errors of the streams the shot draw and the excess-noise channel take
_ONE_OR_SIZED = "rng must be one stream or a sized iterable of streams"
_PER_TABLE = "rngs must yield one stream per table, each a numpy Generator"


@dataclass(frozen=True)
class ShotTable:
    """Excited-sensor counts per shot, int64 of shape (R*N,), each in [0, M]:
    one table of N shots per stream, table r in counts[r*N:(r+1)*N].

    Only simulate_shots builds one. The counts stay wrapped, and flat,
    because the benchmark's tracer (perfbench/spans.py) counts shots as the
    length of the `counts` of each simulate_shots result.
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
    rng: np.random.Generator | Iterable[np.random.Generator],
) -> ShotTable:
    """Simulate N shots of M sensors per stream; phase redrawn every shot.

    rng is one stream, or a sized iterable of R streams (a derive_stream
    family or a list) giving R tables of one setting: the counts hold them
    flat, table r in counts[r*N:(r+1)*N]. The streams are taken strictly in
    order, as a derive_stream family needs, each spent on its table's N
    phases, then its N uniforms (M = 1) or binomial counts (M > 1), exactly
    as alone. One R*N buffer holds the phases, then the counts, for M = 1
    decided 8192 shots at a time across table boundaries, so small tables
    cost as few numpy calls as one large one. Each outcome is
    u < excitation_probability(sensor, t_i, phi) bit for bit, from a float32
    cosine screen with an exact fallback (see the module docstring).
    """
    n, m = ensemble.n_shots, ensemble.m_sensors
    rngs = (rng,) if isinstance(rng, np.random.Generator) else rng
    if not isinstance(rngs, Sized):
        raise ValueError(_ONE_OR_SIZED)
    streams = _streams(rngs, _ONE_OR_SIZED)
    scale = _phase_scale(spec, t_i)
    phi = np.empty(len(rngs) * n)
    counts = phi.view(np.int64)
    size = min(len(phi), _BLOCK)
    u, d, x = np.empty(size), np.empty(size), np.empty(size, dtype=np.float32)
    for t0, stream in zip(range(0, len(phi), n), streams):
        table = _fill_phases(spec, scale, stream, phi[t0:t0 + n])
        if m > 1:
            counts[t0:t0 + n] = stream.binomial(m, excitation_probability(sensor, t_i, table))
            continue
        for lo in range(t0 - t0 % _BLOCK, t0 + n, _BLOCK):  # the blocks the table meets
            hi = min(lo + _BLOCK, len(phi))
            a, b = max(lo, t0), min(hi, t0 + n)
            stream.random(out=u[a - lo:b - lo])
            if b == hi:  # the block's last table
                _decide(sensor, t_i, phi[lo:hi], u[:hi - lo], counts[lo:hi], x[:hi - lo],
                        d[:hi - lo])
    return ShotTable(counts)


def _decide(sensor, t_i, phi, u, out, x, d) -> None:
    """out[:] = u < excitation_probability(sensor, t_i, phi), bit for bit.

    x (float32) and d (float64) are scratch of phi's length; out may share
    phi's memory. The float32 screen and its bound delta are described in
    the module docstring.
    """
    np.abs(np.add(sensor.theta, phi, out=d), out=d)  # |x|: cos is even
    big = float(d.max())
    if not big <= _F32_MAX:  # NaN, or beyond float32: no screen
        np.less(u, excitation_probability(sensor, t_i, phi), out=out)
        return
    x[...] = d
    half_c = 0.5 * contrast(sensor, t_i)
    delta = half_c * (2.0**-20 + 2.0**-22 * big) + 2.0**-40
    np.multiply(np.cos(x, out=x), np.float64(half_c), out=d)
    d += u  # u - p + 1/2, within delta
    sure = d < 0.5 - delta  # u < p
    maybe = d < 0.5 + delta
    if np.count_nonzero(sure) != np.count_nonzero(maybe):  # read phi before out overwrites it
        idx = np.flatnonzero(sure ^ maybe)
        sure[idx] = u[idx] < excitation_probability(sensor, t_i, phi[idx])
    np.copyto(out, sure)


def estimate_population(counts, m_sensors: int) -> PopulationEstimate:
    """p_hat with its empirical error of the mean and the QPN prediction.

    counts holds the integer (or bool) excited counts of one table, shape
    (N,), or of a stack of tables, shape (..., N); the estimate reduces the
    last axis, so each row of a stack gets the bits its table gets alone.
    The fields are floats for one table and arrays of the leading shape for
    a stack.
    """
    counts = np.asarray(counts)
    if counts.dtype.kind not in "biu":
        raise ValueError("counts must be integer (or bool) excited counts")
    if counts.ndim == 0 or counts.shape[-1] < 1:
        raise ValueError("counts need a last axis of at least one shot")
    if isinstance(m_sensors, bool) or not (isinstance(m_sensors, (int, np.integer))
                                           and m_sensors >= 1):
        raise ValueError("m_sensors must be an integer >= 1")
    if counts.size and (counts.min() < 0 or counts.max() > m_sensors):
        raise ValueError("counts must lie in [0, m_sensors]")
    n, m = counts.shape[-1], int(m_sensors)
    fractions = counts.reshape(-1, n) / m
    p_hat = fractions.mean(axis=-1)
    std = fractions.std(axis=-1, ddof=1) if n > 1 else np.zeros(len(fractions))
    std_err = std / math.sqrt(n)
    qpn_err = np.sqrt(p_hat * (1.0 - p_hat) / (n * m))
    if counts.ndim == 1:
        return PopulationEstimate(float(p_hat[0]), float(std_err[0]), float(qpn_err[0]))
    shape = counts.shape[:-1]
    return PopulationEstimate(p_hat.reshape(shape), std_err.reshape(shape),
                              qpn_err.reshape(shape))


def _streams(rngs, usage: str) -> Iterator[np.random.Generator]:
    """The streams of rngs, taken lazily and in order. rngs that is not
    iterable (a bare Generator among them) raises ValueError(usage) at once,
    an item that is not a Generator when it is reached."""
    try:
        items = iter(rngs)
    except TypeError:
        raise ValueError(usage) from None

    def checked():
        for rng in items:
            if not isinstance(rng, np.random.Generator):
                raise ValueError(usage)
            yield rng
    return checked()


def apply_readout_degradation(
    excited, n_shots: int, flip_prob: float, rng: np.random.Generator
) -> np.ndarray:
    """Flip each recorded single-sensor outcome with probability flip_prob,
    as a law on the excited counts of tables of n_shots shots.

    excited holds the excited count k of each table, an integer array of
    any shape with every count in [0, n_shots]. Flipping every outcome on
    its own takes k to k - Bin(k, f) + Bin(n_shots - k, f): the excited
    outcomes that flip down and the ground ones that flip up. rng draws
    x = rng.binomial(np.stack([k, n_shots - k], axis=-1), flip_prob), both
    binomials of each table in row order, and the result is
    k - x[..., 0] + x[..., 1], a new int64 array of excited's shape. At
    flip_prob = 0 returns excited itself and draws nothing. Given k the
    flipped count has mean k(1-f) + (n_shots-k)f and variance
    n_shots*f(1-f); two applications with probabilities a then b compose
    to a+b-2ab, and the effective contrast scales by (1-2*flip_prob).
    Every input is checked before anything is drawn.
    """
    if isinstance(n_shots, bool) or not (isinstance(n_shots, (int, np.integer))
                                         and n_shots >= 1):
        raise ValueError("n_shots must be an integer >= 1")
    if not (isinstance(flip_prob, Real) and 0 <= flip_prob <= 0.5):
        raise ValueError("flip_prob must be in [0, 1/2]")
    if not isinstance(rng, np.random.Generator):
        raise ValueError("rng must be one numpy Generator")
    k = np.asarray(excited)
    if k.dtype.kind not in "iu":
        raise ValueError("readout degradation takes the integer excited counts of "
                         "single-sensor tables")
    if k.size and (k.min() < 0 or k.max() > n_shots):
        raise ValueError("excited counts must lie in [0, n_shots]")
    if flip_prob == 0.0:
        return excited
    k = k.astype(np.int64, copy=False)
    x = rng.binomial(np.stack([k, int(n_shots) - k], axis=-1), flip_prob)
    return k - x[..., 0] + x[..., 1]


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
    streams = _streams(rngs, _PER_TABLE)
    if excess_factor == 1.0:
        return est
    scale = math.sqrt(excess_factor**2 - 1.0)
    jitter = [rng.normal(0.0, q * scale)
              for rng, q in zip(streams, np.ravel(est.qpn_err), strict=True)]
    p_hat = np.clip(est.p_hat + np.reshape(jitter, np.shape(est.p_hat)), 0.0, 1.0)
    return replace(est, p_hat=p_hat, std_err=est.std_err * excess_factor)
