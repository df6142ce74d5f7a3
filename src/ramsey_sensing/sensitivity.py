"""Sensitivity (SNR = 1) solvers, integration-time optimizers, and sensor
compensation counts.

Closed forms cover the constant signal, the linearized Gaussian-kernel
family (variance and burst frequency-separation estimation), and the
compensation count; each result carries the integration time t_i at which
its g_min holds. `gmin_at_optimum` maps a scenario name to its g_min at its
optimal integration time; it, both compensation counts and the variance
optimum read one table of the kernel scenarios' candidate times and
kappa(t), `_kernel_optimum`, and every optimum over t is a golden-section
search to 1e-7 T2. The count is the kernel inverse `_kernel_nm` =
`_floor_nm` + 2/x: `compensation_threshold` is the ratio of two such counts
at finite N, F over unity fidelity, so F = 1 gives 1 by construction, and
`excess_sensors` the ratio of two of their NM -> infinity limits. Only the
tests and the benchmark call the references that back the closed forms: the
exact-SNR root-finder `root_found_gmin` (by the in-package Brent solver
`brentq`, with no small-signal expansion) and `gmin_continuous_two_tone`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .montecarlo import simulate_shots
from .sensor import EnsembleConfig, SensorModel, contrast, mean_population, qpn_variance
from .signals import (
    Constant,
    SignalSpec,
    TwoToneStochastic,
    small_g_curvature,
)

__all__ = [
    "SensitivityResult",
    "gmin_constant",
    "gmin_gaussian_kernel",
    "gmin_variance",
    "gmin_continuous_two_tone",
    "gmin_at_optimum",
    "exact_snr",
    "root_found_gmin",
    "mc_snr",
    "snr_curve",
    "optimal_integration_time",
    "compensation_threshold",
    "excess_sensors",
]

VALIDITY_LIMIT = 0.1  # small-signal assumption: (g t)^2 or kappa g^2 below this


@dataclass(frozen=True)
class SensitivityResult:
    g_min: float  # rad/s
    method: str  # closed_form | root_found
    validity: bool  # False when the small-signal assumption fails at g_min
    t_i: float  # s, the integration time at which g_min holds

    def __post_init__(self) -> None:
        if not (self.g_min > 0 and math.isfinite(self.g_min)):
            raise ValueError("g_min must be positive and finite")


def _closed_form(g: float, small_arg: float, t_i: float) -> SensitivityResult:
    """A closed-form result, valid while its expansion argument at g_min
    ((g t)^2 or kappa g^2) stays below VALIDITY_LIMIT."""
    return SensitivityResult(g, "closed_form", small_arg < VALIDITY_LIMIT, t_i)


def _golden_min(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Golden-section argmin of a unimodal f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


# Brent tolerances: stop once the bracket half width is below
# (xtol + rtol |x|)/2, i.e. at 1e-14 relative for any root away from 0.
BRENT_XTOL = 1e-300
BRENT_RTOL = 1e-14
BRENT_MAXITER = 100


def brentq(f: Callable[[float], float], a: float, b: float) -> float:
    """Root of f on a bracket [a, b] where f changes sign, by Brent's method.

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4:
    secant or inverse-quadratic steps, with a bisection whenever the step
    would not shrink the bracket fast enough. The loop follows
    scipy.optimize.brentq step for step, so at the same tolerances both
    return the same float (tests/test_sensitivity.py::TestBrentq).
    root_found_gmin is its one caller; perfbench counts calls to it under
    the name brentq.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre  # the contrapoint keeps the sign change
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                spre, scur = scur, stry
                bisect = False
        if bisect:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"brentq did not converge in {BRENT_MAXITER} iterations")


def gmin_constant(sensor: SensorModel, ensemble: EnsembleConfig, t_i: float) -> SensitivityResult:
    """Minimum detectable constant shift, 1/(sqrt(NM) t_i C(t_i))."""
    if t_i <= 0:
        raise ValueError("t_i must be > 0")
    denominator = math.sqrt(ensemble.total) * t_i * contrast(sensor, t_i)
    g = 1.0 / denominator if denominator > 0 else math.inf
    if not (g * t_i) * (g * t_i) < math.inf:  # (g_min t_i)^2 is the validity argument
        raise ValueError("contrast underflows at t_i: g_min or (g_min t_i)^2 is not finite")
    return _closed_form(g, (g * t_i) ** 2, t_i)


def gmin_gaussian_kernel(c: float, nm: float, kappa: float) -> float:
    """g_min for any estimator whose signal enters as C e^{-kappa g^2}.

    x = kappa*g_min^2 is the positive root (C + sqrt(C^2 + NM(1-C^2)))/(NM C)
    of the linearized SNR=1 quadratic, with delta_p = C(1-e^{-x})/2 and
    sigma^2 = (1-C^2 e^{-2x})/(4NM). The kernel depends on N and M only
    through nm = N*M, which may be real.
    """
    if not (0 < c <= 1):
        raise ValueError("contrast must be in (0, 1]")
    if not (0 < nm < math.inf):
        raise ValueError("nm must be finite and > 0")
    if not (0 < kappa < math.inf):
        raise ValueError("kappa must be finite and > 0")
    x = (c + math.sqrt(c * c + nm * (1.0 - c * c))) / (nm * c)
    return math.sqrt(x / kappa)


def _floor_nm(c: float, x: float) -> float:
    """The noise-floor term (1 - C^2)/(x C)^2 of _kernel_nm, all that is left
    as NM -> inf; 1 - C^2 is rounded as in gmin_gaussian_kernel."""
    xc = x * c
    return (1.0 - c * c) / xc / xc


def _kernel_nm(c: float, x: float) -> float:
    """Inverse of the kernel root: the N*M at which kappa*g_min^2 = x.

    NM = (1 - C^2 + 2x C^2)/(x^2 C^2) = _floor_nm(C, x) + 2/x, so a round
    trip is exact up to rounding even where C is close to 1. x C stays
    finite where C^2 would underflow; a count past the float range comes
    back as inf.
    """
    return _floor_nm(c, x) + 2.0 / x if x * c > 0 else math.inf


def gmin_variance(sensor: SensorModel, ensemble: EnsembleConfig, t_i: float) -> SensitivityResult:
    """Minimum detectable std of a shot-to-shot stochastic shift."""
    if t_i <= 0:
        raise ValueError("t_i must be > 0")
    kappa = t_i * t_i / 2.0
    g = gmin_gaussian_kernel(contrast(sensor, t_i), ensemble.total, kappa)
    return _closed_form(g, kappa * g * g, t_i)


def _snr(p: float, p_0: float, ensemble: EnsembleConfig) -> float:
    """Signed SNR (p - p_0) / sqrt(QPN at p) of a population against its baseline."""
    var = qpn_variance(p, ensemble)
    if var == 0.0:
        return math.copysign(math.inf, p - p_0) if p != p_0 else 0.0
    return (p - p_0) / math.sqrt(var)


def exact_snr(spec: SignalSpec, sensor: SensorModel, ensemble: EnsembleConfig, t_i: float) -> float:
    """|mean_population(g) - mean_population(0)| / sqrt(QPN at g), no expansion:
    what root_found_gmin solves and tests/test_sensitivity.py::TestSnrCurve checks."""
    p_0 = mean_population(replace(spec, g=0.0), sensor, t_i)
    return abs(_snr(mean_population(spec, sensor, t_i), p_0, ensemble))


def root_found_gmin(
    spec: SignalSpec,
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    t_i: float,
) -> SensitivityResult:
    """SNR(g)=1 crossing of the exact SNR, bracketed, then solved by brentq.

    The bracket grows geometrically from a small start until the SNR exceeds
    1; for the constant signal the search is capped at the first fringe
    turnover g = pi/(2 t_i), beyond which the response folds back. The
    in-package Brent solver then refines the crossing to rtol 1e-14. The
    arbiter for the constant and variance closed forms in
    tests/test_sensitivity.py (TestConstantClosedForm,
    TestVarianceClosedForm, TestRootFinder).
    """
    if not (0 < t_i < math.inf):
        raise ValueError("t_i must be finite and > 0")
    f = lambda g: exact_snr(replace(spec, g=g), sensor, ensemble, t_i) - 1.0
    g_upper = math.pi / (2 * t_i) if isinstance(spec, Constant) else math.inf
    hi = min(1.0 / (t_i * math.sqrt(ensemble.total)), g_upper)
    for _ in range(200):
        if f(hi) > 0:
            break
        if hi >= g_upper:
            raise ValueError("SNR never reaches 1 inside the search range")
        hi = min(hi * 2.0, g_upper)
    else:
        raise ValueError("SNR never reaches 1 inside the search range")
    return SensitivityResult(float(brentq(f, 0.0, hi)), "root_found", True, t_i)


def mc_snr(
    spec: SignalSpec,
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    t_i: float,
    rng,
    n_shots: int,
) -> float:
    """Empirical SNR for the target ensemble, measured with n_shots shots.

    The baseline population is the exact model value (the g=0 response is
    treated as known exactly); only the signal-on response is simulated.
    """
    probe = EnsembleConfig(n_shots, ensemble.m_sensors)
    table = simulate_shots(spec, sensor, probe, t_i, rng)
    p_hat = float(table.counts.mean()) / ensemble.m_sensors
    return _snr(p_hat, mean_population(replace(spec, g=0.0), sensor, t_i), ensemble)


def snr_curve(
    spec: TwoToneStochastic,
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    g: float,
    t_grid,
) -> list[tuple[float, float]]:
    """Signed exact SNR vs integration time for a two-tone signal at separation g.

    Its magnitude is exact_snr. The sign is kept: between rephasing times
    the g = 0 baseline can sit above the signal-on population, and the
    curve dips below zero there. The Monte-Carlo counterpart is mc_snr,
    called per point.
    """
    spec_g, spec_0 = replace(spec, g=g), replace(spec, g=0.0)
    return [
        (t_i, _snr(mean_population(spec_g, sensor, t_i),
                   mean_population(spec_0, sensor, t_i), ensemble))
        for t_i in t_grid
    ]


def _argmin_t(f: Callable[[float], float], t2: float) -> float:
    """Golden-section argmin of f over t in (0, 5 T2] to 1e-7 T2 (f to about 1e-14)."""
    return _golden_min(f, 1e-6 * t2, 5.0 * t2, 1e-7 * t2)


def _kernel_optimum(scenario: str, t2: float, omega_s: float | None, sigma: float | None,
                    cost: Callable[[float, float], float]) -> tuple[float, float, float]:
    """(cost, t, kappa) at the candidate time t of a kernel scenario (the table
    of gmin_at_optimum) where cost(t, kappa) is least; on a tie the shortest t.

    On the two-tone lattice kappa = n^2 kappa_1 = (t/P)^2 kappa_1, the variance
    row's t^2/2 times 2 kappa_1/P^2, so the least multiple neighbours the
    argmin of the same variance-shaped cost over [P, n_max P]. A golden
    section to P/2 puts t* within P/4 of that argmin, so only n0 - 1, n0 and
    n0 + 1 in [1, n_max], n0 = round(t*/P), are tried: 15 costs at 50
    multiples, 39 at five million, none at kappa below kappa_1.
    """
    if scenario == "variance":
        kappa = lambda t: t * t / 2.0
        t = _argmin_t(lambda t: cost(t, kappa(t)), t2)
        return cost(t, kappa(t)), t, kappa(t)
    if scenario not in ("continuous_two_tone", "intermittent"):
        raise ValueError(f"unknown scenario: {scenario}")
    if omega_s is None or sigma is None:
        raise ValueError(f"scenario {scenario} needs omega_s and sigma")
    kappa_1, period = small_g_curvature(omega_s, sigma), 2 * math.pi / omega_s
    if scenario == "intermittent":
        return cost(period, kappa_1), period, kappa_1
    n_max = max(1, int(5.0 * t2 / period))
    t_star = _golden_min(lambda t: cost(t, (t / period) ** 2 * kappa_1),
                         period, n_max * period, period / 2)
    n0 = round(t_star / period)
    return min((cost(n * period, n * n * kappa_1), n * period, n * n * kappa_1)
               for n in range(max(1, n0 - 1), min(n_max, n0 + 1) + 1))


def optimal_integration_time(kind: str, sensor: SensorModel, ensemble: EnsembleConfig) -> float:
    """Integration time t_opt (s) minimizing the constant or variance g_min.

    constant: exactly T2, the argmin of 1/(t C(t)) with C = F e^{-t^2/2T2^2},
    the time gmin_at_optimum uses. variance: by golden-section on (0, 5 T2]
    to 1e-7 T2. As NM grows the variance optimum falls toward the variance
    row's NM -> infinity optimum sqrt(u) T2, u = 2 (1 - F^2 e^{-u}) (see
    excess_sensors): 1.2624 T2 at F = 1, and sqrt(2) T2 only in the small-F
    limit.
    """
    if kind == "constant":
        return sensor.t2
    if kind == "variance":
        return _kernel_optimum("variance", sensor.t2, None, None,
                               lambda t, kappa: gmin_variance(sensor, ensemble, t).g_min)[1]
    raise ValueError(f"unknown scenario kind: {kind}")


def gmin_continuous_two_tone(
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    omega_s: float,
    sigma: float,
) -> SensitivityResult:
    """Root-found g_min for a continuous two-tone signal at its best time.

    Its candidate times are gmin_at_optimum's continuous_two_tone row, where
    the g=0 noise floor rephases, each multiple tried in turn (so this checks
    that row's bounded search); the best is refined by golden-section, and
    the crossing is root-found at the refined time. Times where no crossing
    exists (the saturated population shift C(t)/2 stays below the
    projection-noise floor) count as infinitely bad; if every candidate is
    saturated the signal is undetectable at this ensemble size and a
    ValueError is raised. The reference for the kernel form in
    tests/test_sensitivity.py::TestContinuousTwoTone.
    """
    template = TwoToneStochastic(omega_s, 0.0, sigma)
    period = 2 * math.pi / omega_s

    def gmin_at(t_i: float) -> float:
        try:
            return root_found_gmin(template, sensor, ensemble, t_i).g_min
        except ValueError:
            return math.inf

    n_max = max(1, int(5.0 * sensor.t2 / period))
    g_center, center = min((gmin_at(n * period), n * period) for n in range(1, n_max + 1))
    if not math.isfinite(g_center):
        raise ValueError("signal is undetectable at every candidate time "
                         "(population shift saturates below the noise floor)")
    t_opt = _golden_min(gmin_at, center - period / 2, center + period / 2,
                        1e-4 * sensor.t2)
    g_best, t_best = min((g_center, center), (gmin_at(t_opt), t_opt))
    return SensitivityResult(g_best, "root_found", True, t_best)


def gmin_at_optimum(
    scenario: str,
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    *,
    omega_s: float | None = None,
    sigma: float | None = None,
) -> SensitivityResult:
    """g_min of a scenario at its own optimal integration time.

    constant: at T2, the argmin of 1/(t C(t)) for every fidelity. A kernel
    scenario, signal C(t) e^{-kappa g^2}, takes gmin_gaussian_kernel(C(t), NM,
    kappa) at the best of its candidate times t, with P = 2 pi/omega_s:

        variance             any t in (0, 5 T2]               kappa = t^2/2
        continuous_two_tone  t = n P, n <= max(1, 5 T2 // P)  kappa = n^2 kappa_1
        intermittent         t = P only                       kappa = kappa_1

    kappa_1 = small_g_curvature(omega_s, sigma), so the two-tone rows need the
    tones. At n P the baseline rephases and the phase variance grows as n^2.
    The continuous_two_tone row evaluates only the three multiples around its
    golden-section optimum over t (see _kernel_optimum), so its cost grows
    only as log(T2 omega_s). Unlike gmin_continuous_two_tone, the kernel form
    covers any contrast.
    """
    if scenario == "constant":
        return gmin_constant(sensor, ensemble, sensor.t2)
    g, t_i, kappa = _kernel_optimum(
        scenario, sensor.t2, omega_s, sigma,
        lambda t, kappa: gmin_gaussian_kernel(contrast(sensor, t), ensemble.total, kappa))
    return _closed_form(g, kappa * g * g, t_i)


def compensation_threshold(
    scenario: str,
    fidelity: float,
    *,
    n_shots: int,
    t2: float,
    omega_s: float | None = None,
    sigma: float | None = None,
) -> float:
    """Real-valued sensor count where g_min(F, M) = g_min(1, 1) exactly.

    The integer compensation count is the ceiling of this; exposing the real
    threshold separates the physics (how close M*F^2 sits to 1) from integer
    rounding, which dominates when the count is small. It is the ratio
    count(F)/count(1); a count past the float range is a ValueError. The
    constant signal gives 1/F^2 in closed form. For every other scenario,
    a row of the kernel table, count(f) is the N*M a sensor of fidelity f
    needs to detect the unity sensor's g_min g_1, the least
    _kernel_nm(C_f(t), kappa g_1^2) over that row's candidates. count(1) is N
    up to the solver's error, which the ratio cancels, and at F = 1 both
    counts are one computation, so the threshold is 1 by construction.
    """
    if not (0 < fidelity <= 1):
        raise ValueError("fidelity must be in (0, 1]")
    unity, ensemble = SensorModel(1.0, t2), EnsembleConfig(n_shots, 1)
    if scenario == "constant":
        count = lambda f: 1.0 / f**2 if f**2 > 0 else math.inf
    else:
        target = gmin_at_optimum(scenario, unity, ensemble, omega_s=omega_s, sigma=sigma).g_min

        def count(f: float) -> float:
            sensor = SensorModel(f, t2)
            return _kernel_optimum(scenario, t2, omega_s, sigma, lambda t, kappa: _kernel_nm(
                contrast(sensor, t), kappa * target * target))[0]
    nm = count(fidelity)
    if not math.isfinite(nm):
        raise ValueError("compensation threshold overflows a float")
    return nm / count(1.0)


def excess_sensors(fidelity: float, t1_over_t2: float) -> float:
    """Sensor factor for a burst-limited measurement to match the continuous
    one at the same fidelity: the ratio of two compensation counts, each
    _floor_nm at F over _floor_nm at F = 1, the NM -> infinity limit of
    compensation_threshold (reached as NM^(-1/2); N-free, so T2 = 1).

    The burst side has both sensors at t1, so one kernel root x serves both
    and cancels. The continuous side takes the least _floor_nm(C(t), t^2/2)
    over the variance row, at t = sqrt(u) T2 with u = 2 (1 - F^2 e^{-u}):
    1.5936 at F = 1, and 2 as F -> 0. Unity fidelity gives exactly 1 for
    every t1; for F well below the burst contrast the factor grows as
    1/t1^2. F below about 1e-154 (a count past the float range) or t1 below
    about 1e-8 T2 (C(t1) = 1) is a ValueError.
    """
    if not (0 < fidelity <= 1):
        raise ValueError("fidelity must be in (0, 1]")
    if not (0 < t1_over_t2 <= 5):
        raise ValueError("t1_over_t2 must be in (0, 5]")

    def floors(f: float) -> tuple[float, float]:  # (burst, continuous)
        sensor = SensorModel(f, 1.0)
        floor = lambda t, kappa: _floor_nm(contrast(sensor, t), kappa)
        return floor(t1_over_t2, 1.0), _kernel_optimum("variance", 1.0, None, None, floor)[0]
    try:
        (burst_f, cont_f), (burst_1, cont_1) = floors(fidelity), floors(1.0)
        m_ex = (burst_f / burst_1) / (cont_f / cont_1)
    except ZeroDivisionError:  # a floor term of 0: a contrast of exactly 1, or of 0
        m_ex = math.nan
    if not (0 < m_ex < math.inf):
        raise ValueError("excess sensor factor is not finite at this fidelity and t1_over_t2")
    return m_ex
