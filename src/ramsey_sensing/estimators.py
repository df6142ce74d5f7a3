"""Inversion of population estimates to signal-parameter estimates.

The amplitude and variance estimators invert the exact forward map of their
signal class, so they stay valid over the whole scan range.
estimate_frequency_separation inverts the small-g model of the burst
signal, so it reads large separations low: its noiseless g_hat/g on the
replica grid is 0.996 at 316 Hz and 0.949 at 1000 Hz. Measurements that
cannot be inverted (below the g=0 baseline, or past the fringe turnover)
are excluded as values, not errors; repetitions aggregate by the median of
the defined estimates, which is robust to the heavy upper tail the
exclusion rule creates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import median

from .sensor import SensorModel, contrast
from .signals import IntermittentTwoTone, small_g_curvature
from .montecarlo import PopulationEstimate

__all__ = [
    "ExclusionReason",
    "EstimateOutcome",
    "BiasScan",
    "GminEstimate",
    "estimate_amplitude",
    "estimate_variance",
    "estimate_frequency_separation",
    "empirical_gmin",
    "bias_scan_rows",
]

TWO_PI = 2 * math.pi


class ExclusionReason(enum.Enum):
    BELOW_BASELINE = "below_baseline"
    OUT_OF_DOMAIN = "out_of_domain"


@dataclass(frozen=True)
class EstimateOutcome:
    """Either a defined estimate g_hat (rad/s) or an exclusion reason."""

    g_hat: float | None = None
    reason: ExclusionReason | None = None

    def __post_init__(self) -> None:
        if (self.g_hat is None) == (self.reason is None):
            raise ValueError("outcome is exactly one of defined or excluded")

    @property
    def defined(self) -> bool:
        return self.g_hat is not None

    @classmethod
    def of(cls, g_hat: float) -> "EstimateOutcome":
        return cls(g_hat=g_hat)

    @classmethod
    def excluded(cls, reason: ExclusionReason) -> "EstimateOutcome":
        return cls(reason=reason)


def estimate_amplitude(
    est: PopulationEstimate, sensor: SensorModel, t_i: float
) -> EstimateOutcome:
    """Invert p = (1 + C sin(g t_i))/2 at bias theta = pi/2.

    Defined while |2p-1| <= C. The sign of the estimate is kept: noise can
    push p_hat below 1/2, and a clamped estimator would bias small-signal
    medians upward.
    """
    if not math.isclose(sensor.theta, math.pi / 2, rel_tol=0, abs_tol=1e-12):
        raise ValueError("amplitude estimation requires bias theta = pi/2")
    c = contrast(sensor, t_i)
    arg = (2.0 * est.p_hat - 1.0) / c
    if abs(arg) > 1.0:
        return EstimateOutcome.excluded(ExclusionReason.OUT_OF_DOMAIN)
    return EstimateOutcome.of(math.asin(arg) / t_i)


def _contrast_loss_inversion(p_hat: float, c: float) -> tuple[float | None, ExclusionReason | None]:
    """Shared exclusion logic for estimators that sense contrast loss at theta=0.

    Returns (x, None) with x = -ln((1-2p)/C) >= 0, or (None, reason).
    """
    baseline = (1.0 - c) / 2.0
    if p_hat < baseline:
        return None, ExclusionReason.BELOW_BASELINE
    if p_hat >= 0.5:
        return None, ExclusionReason.OUT_OF_DOMAIN
    if p_hat == baseline:
        return 0.0, None
    x = -math.log((1.0 - 2.0 * p_hat) / c)
    # rounding can push the ratio one ulp above 1 when p_hat hugs the baseline
    return (0.0 if x < 0.0 else x), None


def _fold_theta(p_hat: float, theta: float) -> float:
    """Map a theta=pi measurement onto the theta=0 form; reject other biases."""
    if math.isclose(theta, 0.0, rel_tol=0, abs_tol=1e-12):
        return p_hat
    if math.isclose(theta, math.pi, rel_tol=0, abs_tol=1e-12):
        return 1.0 - p_hat
    raise ValueError("contrast-loss estimation requires bias theta in {0, pi}")


def estimate_variance(
    est: PopulationEstimate, sensor: SensorModel, t_i: float
) -> EstimateOutcome:
    """Invert p = (1 - C e^{-g^2 t^2/2})/2 for the stochastic-amplitude std g."""
    p = _fold_theta(est.p_hat, sensor.theta)
    x, reason = _contrast_loss_inversion(p, contrast(sensor, t_i))
    if reason is not None:
        return EstimateOutcome.excluded(reason)
    return EstimateOutcome.of(math.sqrt(2.0 * x) / t_i)


def estimate_frequency_separation(
    est: PopulationEstimate, sensor: SensorModel, spec: IntermittentTwoTone
) -> EstimateOutcome:
    """Invert the small-g population model at one center period.

    p = (1 - C_t e^{-kappa g^2})/2 with kappa the small-g curvature of half
    the phase variance under the spec's tone convention.
    """
    t1 = spec.period
    p = _fold_theta(est.p_hat, sensor.theta)
    x, reason = _contrast_loss_inversion(p, contrast(sensor, t1))
    if reason is not None:
        return EstimateOutcome.excluded(reason)
    kappa = small_g_curvature(spec.omega_s, spec.sigma, spec.convention)
    return EstimateOutcome.of(math.sqrt(x / kappa))


@dataclass(frozen=True)
class BiasScan:
    """Estimate outcomes over repetitions at each applied parameter value."""

    rows: tuple[tuple[float, tuple[EstimateOutcome, ...]], ...]

    def __post_init__(self) -> None:
        applied = [g for g, _ in self.rows]
        if any(b <= a for a, b in zip(applied, applied[1:])):
            raise ValueError("applied values must be strictly increasing")
        if any(len(reps) < 2 for _, reps in self.rows):
            raise ValueError("each row needs at least 2 repetitions")

    def applied(self) -> list[float]:
        return [g for g, _ in self.rows]


@dataclass(frozen=True)
class GminEstimate:
    g_min: float  # rad/s
    resolved: bool  # False: no grid point qualified, g_min is the scan's top
    rel_tol: float


def _row_qualifies(g_applied: float, reps: tuple[EstimateOutcome, ...], rel_tol: float) -> bool:
    defined = [o.g_hat for o in reps if o.defined]
    if 2 * len(defined) < len(reps):
        return False
    return abs(median(defined) - g_applied) <= rel_tol * g_applied


def empirical_gmin(scan: BiasScan, rel_tol: float = 0.1) -> GminEstimate:
    """Smallest applied value from which estimation stays unbiased.

    A grid point qualifies when at least half its repetitions are defined
    and the median defined estimate matches the applied value within
    rel_tol. Returns the smallest point such that it and every larger point
    qualify; if none does, returns the grid's upper bound flagged
    unresolved.
    """
    if len(scan.rows) < 4:
        raise ValueError("scan needs at least 4 grid points")
    if not (0 < rel_tol < math.inf):
        raise ValueError("rel_tol must be finite and > 0")
    qualifying_from = None
    for g_applied, reps in reversed(scan.rows):
        if _row_qualifies(g_applied, reps, rel_tol):
            qualifying_from = g_applied
        else:
            break
    if qualifying_from is None:
        return GminEstimate(scan.rows[-1][0], resolved=False, rel_tol=rel_tol)
    return GminEstimate(qualifying_from, resolved=True, rel_tol=rel_tol)


def bias_scan_rows(scan: BiasScan) -> list[tuple]:
    """Flatten to (g_applied_hz, rep_index, status, g_hat_hz) rows."""
    out = []
    for g_applied, reps in scan.rows:
        for idx, outcome in enumerate(reps):
            if outcome.defined:
                out.append((g_applied / TWO_PI, idx, "defined", outcome.g_hat / TWO_PI))
            else:
                out.append((g_applied / TWO_PI, idx, outcome.reason.value, None))
    return out
