"""Inversion of burst-signal population estimates to frequency-separation
estimates, and the empirical detection threshold of a scan of them.

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

__all__ = [
    "ExclusionReason",
    "EstimateOutcome",
    "BiasScan",
    "GminEstimate",
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


def estimate_frequency_separation(
    p_hat: float, sensor: SensorModel, spec: IntermittentTwoTone
) -> EstimateOutcome:
    """Invert a population estimate p_hat under the small-g model at one
    center period.

    p = (1 - C_t e^{-kappa g^2})/2 with kappa the small-g curvature of half
    the phase variance under the spec's tone convention. The model holds at
    bias theta = 0; a theta = pi measurement is mirrored (p -> 1 - p) onto
    it, and any other bias raises. p below the g = 0 baseline (1 - C_t)/2
    is excluded as BELOW_BASELINE, p >= 1/2 as OUT_OF_DOMAIN.
    """
    if not (0 <= p_hat <= 1):
        raise ValueError("p_hat must be a probability")
    if math.isclose(sensor.theta, 0.0, rel_tol=0, abs_tol=1e-12):
        p = p_hat
    elif math.isclose(sensor.theta, math.pi, rel_tol=0, abs_tol=1e-12):
        p = 1.0 - p_hat
    else:
        raise ValueError("frequency-separation estimation requires bias theta in {0, pi}")
    c = contrast(sensor, spec.period)
    baseline = (1.0 - c) / 2.0
    if p < baseline:
        return EstimateOutcome.excluded(ExclusionReason.BELOW_BASELINE)
    if p >= 0.5:
        return EstimateOutcome.excluded(ExclusionReason.OUT_OF_DOMAIN)
    x = 0.0 if p == baseline else -math.log((1.0 - 2.0 * p) / c)
    kappa = small_g_curvature(spec.omega_s, spec.sigma, spec.convention)
    # rounding can push the ratio one ulp above 1 when p hugs the baseline
    return EstimateOutcome.of(math.sqrt(max(x, 0.0) / kappa))


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


@dataclass(frozen=True)
class GminEstimate:
    g_min: float  # rad/s
    resolved: bool  # False: no grid point qualified, g_min is the scan's top


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
        return GminEstimate(scan.rows[-1][0], resolved=False)
    return GminEstimate(qualifying_from, resolved=True)


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
