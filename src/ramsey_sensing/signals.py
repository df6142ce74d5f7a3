"""Signal classes and the Ramsey phase functional.

Four signal models: a constant frequency shift, a shot-to-shot stochastic
shift, a continuous two-tone stochastic signal, and its intermittent (burst)
variant. The sensed quantity is always the accrued phase

    phi = integral of B(t) over the integration window [0, t_i],

evaluated in closed form. Stochastic amplitudes are frozen within a shot and
redrawn between shots, so phi is an exactly Gaussian variable for the
two-tone classes and its variance has a closed form too. The shot engine
therefore draws phi directly, one normal per shot, as `sample_phases` does.
Fields and t_i are bounded by the float range (by its square root where
squared), so an oversized value, even a huge int, raises ValueError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constant",
    "StochasticAmplitude",
    "TwoToneStochastic",
    "IntermittentTwoTone",
    "tone_angular_frequencies",
    "sample_phases",
    "phase_variance_exact",
    "small_g_curvature",
]

# bounds of a value and of a value that is squared: unlike math.isfinite or
# x * x < inf, they hold for numpy floats and for ints past the float range
_FLOAT_MAX = sys.float_info.max
_SQUARE_MAX = math.sqrt(_FLOAT_MAX)

# numpy's standard normals stay below 14 in magnitude (the ziggurat's tail
# on 53-bit uniforms), so a phase can overflow only at a scale above this
_UNCHECKED_SCALE = _FLOAT_MAX / 2.0**10


@dataclass(frozen=True)
class Constant:
    """Deterministic shift: B(t) = g."""

    g: float  # rad/s

    def __post_init__(self) -> None:
        if not 0 <= self.g <= _FLOAT_MAX:
            raise ValueError("g must be finite and >= 0")


@dataclass(frozen=True)
class StochasticAmplitude:
    """Shot-to-shot constant shift B_s drawn from N(0, g^2); g is the std."""

    g: float  # rad/s

    def __post_init__(self) -> None:
        # the mean population's damping reads g^2, which must stay finite
        if not 0 <= self.g <= _SQUARE_MAX:
            raise ValueError("g must be finite and >= 0, with g^2 finite")


@dataclass(frozen=True)
class TwoToneStochastic:
    """B(t) = A1 sin(w1 t) + B1 cos(w1 t) + A2 sin(w2 t) + B2 cos(w2 t).

    The four amplitudes are i.i.d. N(0, sigma^2) per shot. The tones sit at
    omega_s +/- g, so the small-g population exponent is
    4*pi^2*sigma^2*g^2/omega_s^4; this is the reading under which the
    replica's burst threshold comes out at the paper's 290 Hz. For a
    separation read as omega_1 - omega_2, pass g = (omega_1 - omega_2)/2; a
    threshold stated as omega_1 - omega_2 is then 2*g_min.
    """

    omega_s: float  # rad/s, center frequency
    g: float  # rad/s, half the tone separation
    sigma: float  # rad/s, std of each quadrature amplitude

    def __post_init__(self) -> None:
        if not 0 < self.omega_s <= _FLOAT_MAX:
            raise ValueError("omega_s must be finite and > 0")
        # the phase variance scales as sigma^2, which must stay finite
        if not 0 < self.sigma <= _SQUARE_MAX:
            raise ValueError("sigma must be finite and > 0, with sigma^2 finite")
        if not 0 <= self.g <= _FLOAT_MAX:
            raise ValueError("g must be finite and >= 0")


@dataclass(frozen=True)
class IntermittentTwoTone:
    """Two-tone signal present only during a burst of duration t_sig."""

    omega_s: float
    g: float
    sigma: float
    t_sig: float  # s, burst duration

    def __post_init__(self) -> None:
        TwoToneStochastic(self.omega_s, self.g, self.sigma)
        # bursts longer than two center-frequency periods are out of scope
        if not (0 < self.t_sig <= 2 * (2 * math.pi / self.omega_s)):
            raise ValueError("t_sig must be in (0, 2*(2*pi/omega_s)]")

    @property
    def period(self) -> float:
        return 2 * math.pi / self.omega_s


SignalSpec = Constant | StochasticAmplitude | TwoToneStochastic | IntermittentTwoTone


def tone_angular_frequencies(spec: TwoToneStochastic | IntermittentTwoTone) -> tuple[float, float]:
    """(omega_1, omega_2) = omega_s +/- g."""
    return spec.omega_s + spec.g, spec.omega_s - spec.g


def _phase_weights(spec: TwoToneStochastic | IntermittentTwoTone, t_i: float) -> np.ndarray:
    """Weights w with phi = coefficients . w, from integrating each quadrature.

    A sin(wt) integrates to A*(1-cos(w t_i))/w and B cos(wt) to
    B*sin(w t_i)/w; 1-cos is evaluated as 2 sin^2 for small-angle accuracy.
    A tone at w = 0 (g = omega_s) takes the w -> 0 limit of both weights,
    (0, t_i).
    """
    w1, w2 = tone_angular_frequencies(spec)
    out = np.empty(4)
    for k, w in enumerate((w1, w2)):
        if w == 0.0:
            out[2 * k], out[2 * k + 1] = 0.0, t_i
        else:
            out[2 * k] = 2.0 * math.sin(0.5 * w * t_i) ** 2 / w
            out[2 * k + 1] = math.sin(w * t_i) / w
    return out


def _check_ti(spec: SignalSpec, t_i: float) -> None:
    if not 0 < t_i <= _FLOAT_MAX:
        raise ValueError("t_i must be finite and > 0")
    if isinstance(spec, IntermittentTwoTone) and t_i > spec.t_sig:
        raise ValueError("t_i exceeds the burst duration t_sig")


def phase_variance_exact(spec: TwoToneStochastic | IntermittentTwoTone, t_i: float) -> float:
    """Var(phi) for the two-tone classes, exact for all g and t_i.

    phi is a linear functional of the four i.i.d. normal amplitudes, so
    Var(phi) = sigma^2 * sum of squared weights. Vanishes at g=0 whenever
    t_i is an integer number of center-frequency periods.
    """
    if not isinstance(spec, (TwoToneStochastic, IntermittentTwoTone)):
        raise TypeError("phase variance is defined for the two-tone classes")
    _check_ti(spec, t_i)
    w = _phase_weights(spec, t_i)
    return spec.sigma**2 * float(w @ w)


def _phase_scale(spec: SignalSpec, t_i: float) -> float:
    """The phase g*t_i of a Constant, else the std of the Gaussian phase.

    A scale that is not finite would make every phase inf or NaN, and every
    outcome a comparison with a NaN probability, so it raises ValueError.
    """
    _check_ti(spec, t_i)
    if isinstance(spec, (Constant, StochasticAmplitude)):
        scale = spec.g * t_i
    else:
        scale = math.sqrt(phase_variance_exact(spec, t_i))
    if not math.isfinite(scale):
        raise ValueError("the phase scale (g*t_i, or the phase std) must be finite")
    return scale


def sample_phases(spec: SignalSpec, n: int, t_i: float, rng: np.random.Generator) -> np.ndarray:
    """Draw the accrued phases of n independent shots over [0, t_i].

    At most one normal per shot: g*t_i for Constant (no
    draw), N(0, (g*t_i)^2) for StochasticAmplitude, and
    N(0, phase_variance_exact) for the two-tone classes, whose phase is a
    fixed linear combination of four i.i.d. normal amplitudes.
    """
    return _fill_phases(spec, _phase_scale(spec, t_i), rng, np.empty(n))


def _fill_phases(spec: SignalSpec, scale: float, rng, out: np.ndarray) -> np.ndarray:
    """Fill out with the phases of sample_phases at its scale, and return it."""
    if isinstance(spec, Constant):
        out.fill(scale)
        return out
    # in place, the values of rng.normal(0.0, scale, len(out))
    rng.standard_normal(out=out)
    if scale < _UNCHECKED_SCALE:
        return np.multiply(out, scale, out=out)
    try:  # a finite scale near the float maximum can still overflow a phase
        with np.errstate(over="raise"):
            return np.multiply(out, scale, out=out)
    except FloatingPointError:
        raise ValueError("the phase scale is too large: a phase overflows a float") from None


def small_g_curvature(omega_s: float, sigma: float) -> float:
    """kappa = 4*pi^2*sigma^2/omega_s^4, with Var(phi)/2 ~ kappa*g^2 at t_i =
    one center period, g -> 0."""
    if not (0 < omega_s < math.inf and 0 < sigma < math.inf):
        raise ValueError("omega_s and sigma must be finite and > 0")
    try:
        kappa = 4 * math.pi**2 * sigma**2 / omega_s**4
    except (OverflowError, ZeroDivisionError):  # sigma^2 or omega_s^4 out of float range
        kappa = math.nan
    if not (0 < kappa < math.inf):
        raise ValueError("omega_s and sigma give a kappa that is not finite and > 0")
    return kappa
