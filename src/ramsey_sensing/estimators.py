"""Inversion of burst-signal population estimates to frequency-separation
estimates, and the empirical detection threshold of a scan of them.

invert_frequency_separation maps any array of p_hat, measured at bias
theta = 0, to g_hat and an int8 reason code (STATUS holds each code's CSV
token). Values that cannot be inverted (below the g=0 baseline, or past the
fringe turnover) are excluded as NaN, not errors, and write as empty cells
in bias_scan_table's columns.
The small-g model reads large separations low: its noiseless g_hat/g on the
replica grid is 0.996 at 316 Hz and 0.949 at 1000 Hz. Repetitions aggregate
by the median of the defined estimates, which is robust to the heavy upper
tail the exclusion rule creates; a grid point counts as unbiased when that
median lies within REL_TOL = 10 % of its applied value.
g is the half-separation: the tones sit at omega_s +/- g, the one reading
under which the replica's threshold matches the paper's 290 Hz. For a
separation read as omega_1 - omega_2, pass g = (omega_1 - omega_2)/2; a
threshold stated as omega_1 - omega_2 is 2*g_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sensor import SensorModel, contrast
from .signals import IntermittentTwoTone, small_g_curvature

__all__ = [
    "STATUS",
    "BiasScan",
    "GminEstimate",
    "invert_frequency_separation",
    "empirical_gmin",
    "bias_scan_table",
]

TWO_PI = 2 * math.pi

# CSV token of each reason code
STATUS = ("defined", "below_baseline", "out_of_domain")
# a grid point's median estimate must match its applied value within this fraction
REL_TOL = 0.1


def invert_frequency_separation(
    p_hat, sensor: SensorModel, spec: IntermittentTwoTone
) -> tuple[np.ndarray, np.ndarray]:
    """Invert population estimates p_hat under the small-g model at one
    center period; returns (g_hat, reason), both of p_hat's shape.

    p = (1 - C_t e^{-kappa g^2})/2 with kappa the small-g curvature of half
    the phase variance, tones at omega_s +/- g. The model holds at
    bias theta = 0, the only bias accepted. p below the g = 0 baseline
    (1 - C_t)/2 is excluded with code 1, p >= 1/2 with code 2; g_hat is NaN
    there.
    The inversion reads the spec's tones and period, never its
    g, so one call covers a whole scan over g. Each value is inverted with
    math.log, whose last bit np.log does not always match.
    """
    p = np.asarray(p_hat, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("p_hat must be a probability")
    if not math.isclose(sensor.theta, 0.0, rel_tol=0, abs_tol=1e-12):
        raise ValueError("frequency-separation estimation requires bias theta = 0")
    c = contrast(sensor, spec.period)
    baseline = (1.0 - c) / 2.0
    kappa = small_g_curvature(spec.omega_s, spec.sigma)
    reason = np.where(p < baseline, 1, np.where(p >= 0.5, 2, 0)).astype(np.int8)
    g_hat = np.full(p.shape, np.nan)
    defined = reason == 0
    # (1 - 2p)/c rounds above 1 only at the baseline; 0.0 - log keeps g_hat(1) at +0.0
    g_hat[defined] = [
        math.sqrt((0.0 if q == baseline else 0.0 - math.log((1.0 - 2.0 * q) / c)) / kappa)
        for q in p[defined].tolist()]
    return g_hat, reason


@dataclass(frozen=True)
class BiasScan:
    """Inversions over repetitions at each applied parameter value: the
    applied grid (G,), g_hat (G, R) with NaN where excluded, and the reason
    codes (G, R)."""

    applied: np.ndarray
    g_hat: np.ndarray
    reason: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("applied", float), ("g_hat", float), ("reason", np.int8)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if (self.g_hat.ndim != 2 or self.reason.shape != self.g_hat.shape
                or self.applied.shape != self.g_hat.shape[:1]):
            raise ValueError("scan needs applied (G,) and g_hat, reason (G, R)")
        if not ((self.reason >= 0) & (self.reason < len(STATUS))).all():
            raise ValueError("reason codes must index STATUS")
        if not np.array_equal(np.isnan(self.g_hat), self.reason != 0):
            raise ValueError("g_hat must be NaN exactly where a reason excludes it")
        if (np.diff(self.applied) <= 0).any():
            raise ValueError("applied values must be strictly increasing")
        if self.g_hat.shape[1] < 2:
            raise ValueError("each row needs at least 2 repetitions")


@dataclass(frozen=True)
class GminEstimate:
    g_min: float  # rad/s
    resolved: bool  # False: no grid point qualified, g_min is the scan's top


def empirical_gmin(scan: BiasScan) -> GminEstimate:
    """Smallest applied value from which estimation stays unbiased.

    A grid point qualifies when at least half its repetitions are defined
    and the median defined estimate matches the applied value within
    REL_TOL. Returns the smallest point such that it and every larger point
    qualify; if none does, returns the grid's upper bound flagged
    unresolved.
    """
    n_points, reps = scan.g_hat.shape
    if n_points < 4:
        raise ValueError("scan needs at least 4 grid points")
    defined = np.count_nonzero(scan.reason == 0, axis=1)
    # excluded cells are NaN and sort last; the median is the mean of the
    # middle pair of the defined ones (of the middle one twice), as in
    # statistics.median, and NaN on a row with none defined
    ordered = np.sort(scan.g_hat, axis=1)
    rows = np.arange(n_points)
    median = (ordered[rows, (defined - 1) // 2] + ordered[rows, defined // 2]) / 2
    qualifies = (2 * defined >= reps) & (np.abs(median - scan.applied) <= REL_TOL * scan.applied)
    failing = np.flatnonzero(~qualifies)
    start = failing[-1] + 1 if failing.size else 0
    if start == n_points:
        return GminEstimate(float(scan.applied[-1]), resolved=False)
    return GminEstimate(float(scan.applied[start]), resolved=True)


def bias_scan_table(scan: BiasScan) -> dict[str, np.ndarray]:
    """Flatten to one row per (grid point, repetition); g_hat_hz is NaN where excluded."""
    reps = scan.g_hat.shape[1]
    return {"g_applied_hz": np.repeat(scan.applied / TWO_PI, reps),
            "rep_index": np.tile(np.arange(reps), scan.applied.size),
            "status": np.array(STATUS)[scan.reason.ravel()],
            "g_hat_hz": (scan.g_hat / TWO_PI).ravel()}
