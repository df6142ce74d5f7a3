"""Sensitivity (SNR = 1) solvers, integration-time optimizers, and sensor
compensation counts.

Closed forms cover the constant signal, the linearized Gaussian-kernel
family (variance and burst frequency-separation estimation), and the
asymptotic compensation/excess-sensor ratios. `gmin_at_optimum` is the one
place that maps a scenario name to its g_min at its optimal integration
time; the pipelines and the compensation counts go through it. A numeric
root-finder on the exact SNR expression, with no small-signal expansion,
backs every closed form; Monte-Carlo crossings back the root-finder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from scipy.optimize import brentq

from .montecarlo import simulate_shots
from .sensor import EnsembleConfig, SensorModel, contrast, mean_population, qpn_variance
from .signals import (
    Constant,
    SignalSpec,
    ToneConvention,
    TwoToneStochastic,
    small_g_curvature,
)

__all__ = [
    "SensitivityResult",
    "OptimalTime",
    "gmin_constant",
    "gmin_gaussian_kernel",
    "gmin_variance",
    "gmin_intermittent",
    "gmin_continuous_two_tone",
    "gmin_continuous_kernel",
    "gmin_at_optimum",
    "exact_snr",
    "root_found_gmin",
    "mc_snr",
    "mc_gmin_crossing",
    "snr_curve",
    "optimal_integration_time",
    "compensation_sensors",
    "compensation_threshold",
    "excess_sensors",
    "continuous_optimal_u",
]

VALIDITY_LIMIT = 0.1  # small-signal assumption: (g t)^2 or kappa g^2 below this


@dataclass(frozen=True)
class SensitivityResult:
    g_min: float  # rad/s
    method: str  # closed_form | root_found | monte_carlo
    validity: bool  # False when the small-signal assumption fails at g_min
    inputs: dict

    def __post_init__(self) -> None:
        if not (self.g_min > 0 and math.isfinite(self.g_min)):
            raise ValueError("g_min must be positive and finite")


@dataclass(frozen=True)
class OptimalTime:
    t_opt: float  # s
    at_bracket_edge: bool  # True when the optimum saturated the search window


def _closed_form(
    g: float, small_arg: float, sensor: SensorModel, ensemble: EnsembleConfig, **inputs
) -> SensitivityResult:
    """A closed-form result, valid while its expansion argument at g_min
    ((g t)^2 or kappa g^2) stays below VALIDITY_LIMIT."""
    return SensitivityResult(
        g, "closed_form", validity=small_arg < VALIDITY_LIMIT,
        inputs={**inputs, "fidelity": sensor.fidelity, "t2": sensor.t2,
                "n_shots": ensemble.n_shots, "m_sensors": ensemble.m_sensors},
    )


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


def gmin_constant(sensor: SensorModel, ensemble: EnsembleConfig, t_i: float) -> SensitivityResult:
    """Minimum detectable constant shift, 1/(sqrt(NM) t_i C(t_i))."""
    if t_i <= 0:
        raise ValueError("t_i must be > 0")
    g = 1.0 / (math.sqrt(ensemble.total) * t_i * contrast(sensor, t_i))
    return _closed_form(g, (g * t_i) ** 2, sensor, ensemble, t_i=t_i)


def _kernel_x(c: float, nm: float) -> float:
    """Positive root x = kappa*g_min^2 of the linearized SNR=1 quadratic.

    Model: delta_p = C(1-e^{-kappa g^2})/2, sigma^2 = (1-C^2 e^{-2 kappa g^2})/(4NM).
    """
    if not (0 < c <= 1):
        raise ValueError("contrast must be in (0, 1]")
    return (c + math.sqrt(c * c + nm * (1.0 - c * c))) / (nm * c)


def gmin_gaussian_kernel(c: float, ensemble: EnsembleConfig, kappa: float) -> float:
    """g_min for any estimator whose signal enters as C e^{-kappa g^2}."""
    if not (0 < kappa < math.inf):
        raise ValueError("kappa must be finite and > 0")
    return math.sqrt(_kernel_x(c, ensemble.total) / kappa)


def gmin_variance(sensor: SensorModel, ensemble: EnsembleConfig, t_i: float) -> SensitivityResult:
    """Minimum detectable std of a shot-to-shot stochastic shift."""
    if t_i <= 0:
        raise ValueError("t_i must be > 0")
    kappa = t_i * t_i / 2.0
    g = gmin_gaussian_kernel(contrast(sensor, t_i), ensemble, kappa)
    return _closed_form(g, kappa * g * g, sensor, ensemble, t_i=t_i)


def gmin_intermittent(
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    omega_s: float,
    sigma: float,
    convention: ToneConvention = ToneConvention.FULL_SPLIT,
) -> SensitivityResult:
    """Minimum detectable tone separation for a one-period burst measurement."""
    kappa = small_g_curvature(omega_s, sigma, convention)
    t1 = 2 * math.pi / omega_s
    g = gmin_gaussian_kernel(contrast(sensor, t1), ensemble, kappa)
    return _closed_form(g, kappa * g * g, sensor, ensemble, t1=t1, omega_s=omega_s,
                        sigma=sigma, convention=convention.value)


def _with_g(spec: SignalSpec, g: float) -> SignalSpec:
    return replace(spec, g=g)


def _snr(p: float, p_0: float, ensemble: EnsembleConfig) -> float:
    """Signed SNR (p - p_0) / sqrt(QPN at p) of a population against its baseline."""
    var = qpn_variance(p, ensemble)
    if var == 0.0:
        return math.copysign(math.inf, p - p_0) if p != p_0 else 0.0
    return (p - p_0) / math.sqrt(var)


def exact_snr(spec: SignalSpec, sensor: SensorModel, ensemble: EnsembleConfig, t_i: float) -> float:
    """|mean_population(g) - mean_population(0)| / sqrt(QPN at g), no expansion."""
    p_0 = mean_population(_with_g(spec, 0.0), sensor, t_i)
    return abs(_snr(mean_population(spec, sensor, t_i), p_0, ensemble))


def root_found_gmin(
    spec: SignalSpec,
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    t_i: float,
    g_upper: float | None = None,
) -> SensitivityResult:
    """SNR(g)=1 crossing of the exact SNR by bracketing and brentq.

    The bracket grows geometrically from a small start until the SNR exceeds
    1; for the constant signal the search is capped at the first fringe
    turnover g = pi/(2 t_i), beyond which the response folds back.
    """
    f = lambda g: exact_snr(_with_g(spec, g), sensor, ensemble, t_i) - 1.0
    if g_upper is None:
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
    g = brentq(f, 0.0, hi, xtol=1e-300, rtol=1e-14)
    return SensitivityResult(
        float(g), "root_found", validity=True,
        inputs={"t_i": t_i, "n_shots": ensemble.n_shots, "m_sensors": ensemble.m_sensors},
    )


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
    return _snr(p_hat, mean_population(_with_g(spec, 0.0), sensor, t_i), ensemble)


def mc_gmin_crossing(
    spec: SignalSpec,
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    t_i: float,
    rng,
    bracket_center: float,
    n_shots: int = 100_000,
    n_avg: int = 3,
    ratio_tol: float = 1.01,
) -> SensitivityResult:
    """Monte-Carlo SNR=1 crossing by geometric bisection.

    Starts from a [center/5, 5*center] bracket, bisects until hi/lo is
    within ratio_tol, and averages n_avg independent bisections
    geometrically to beat the shot noise of single runs.
    """
    crossings = []
    for _ in range(n_avg):
        lo, hi = bracket_center / 5.0, bracket_center * 5.0
        while hi / lo > ratio_tol:
            mid = math.sqrt(lo * hi)
            if mc_snr(_with_g(spec, mid), sensor, ensemble, t_i, rng, n_shots) >= 1.0:
                hi = mid
            else:
                lo = mid
        crossings.append(math.sqrt(lo * hi))
    g = math.exp(sum(math.log(c) for c in crossings) / len(crossings))
    return SensitivityResult(
        g, "monte_carlo", validity=True,
        inputs={"t_i": t_i, "n_shots_probe": n_shots, "n_avg": n_avg},
    )


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
    spec_g, spec_0 = _with_g(spec, g), _with_g(spec, 0.0)
    return [
        (t_i, _snr(mean_population(spec_g, sensor, t_i),
                   mean_population(spec_0, sensor, t_i), ensemble))
        for t_i in t_grid
    ]


def optimal_integration_time(
    kind: str,
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    spec: TwoToneStochastic | None = None,
) -> OptimalTime:
    """Best integration time for a scenario, by golden-section on (0, 5 T2].

    constant/variance minimize their g_min; continuous_two_tone maximizes
    the exact SNR of the given spec, seeded by the best integer multiple of
    the center period before continuous refinement. The variance optimum
    falls toward sqrt(continuous_optimal_u(F)) T2 as NM grows: 1.2624 T2 at
    F = 1, and sqrt(2) T2 only in the small-F limit.
    """
    t2 = sensor.t2
    lo, hi = 1e-6 * t2, 5.0 * t2
    tol = 1e-4 * t2
    if kind == "constant":
        f = lambda t: gmin_constant(sensor, ensemble, t).g_min
    elif kind == "variance":
        f = lambda t: gmin_variance(sensor, ensemble, t).g_min
    elif kind == "continuous_two_tone":
        if spec is None:
            raise ValueError("continuous_two_tone needs a signal spec")
        period = 2 * math.pi / spec.omega_s
        n_max = max(1, int(hi / period))
        best_n = max(range(1, n_max + 1),
                     key=lambda n: exact_snr(spec, sensor, ensemble, n * period))
        center = best_n * period
        lo = max(lo, center - period / 2)
        hi = min(hi, center + period / 2)
        f = lambda t: -exact_snr(spec, sensor, ensemble, t)
    else:
        raise ValueError(f"unknown scenario kind: {kind}")
    t_opt = _golden_min(f, lo, hi, tol)
    return OptimalTime(t_opt, at_bracket_edge=t_opt > 5.0 * t2 - 2 * tol)


def gmin_continuous_two_tone(
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    omega_s: float,
    sigma: float,
    convention: ToneConvention = ToneConvention.FULL_SPLIT,
) -> SensitivityResult:
    """Root-found g_min for a continuous two-tone signal at its best time.

    The candidate times are the integer multiples of the center period
    (where the g=0 noise floor rephases), the best candidate is refined by
    golden-section, and the crossing is root-found at the refined time.
    Times where no crossing exists (the saturated population shift C(t)/2
    stays below the projection-noise floor) count as infinitely bad; if
    every candidate is saturated the signal is undetectable at this
    ensemble size and a ValueError is raised.
    """
    template = TwoToneStochastic(omega_s, 0.0, sigma, convention)
    period = 2 * math.pi / omega_s
    n_max = max(1, int(5.0 * sensor.t2 / period))

    def gmin_at(t_i: float) -> float:
        try:
            return root_found_gmin(template, sensor, ensemble, t_i).g_min
        except ValueError:
            return math.inf

    best_n = min(range(1, n_max + 1), key=lambda n: gmin_at(n * period))
    center = best_n * period
    if not math.isfinite(gmin_at(center)):
        raise ValueError("signal is undetectable at every candidate time "
                         "(population shift saturates below the noise floor)")
    t_opt = _golden_min(gmin_at, center - period / 2, center + period / 2,
                        1e-4 * sensor.t2)
    candidates = [(gmin_at(t), t) for t in (center, t_opt)]
    g_best, t_best = min(candidates)
    return SensitivityResult(
        g_best, "root_found", validity=True,
        inputs={"t_opt": t_best, "omega_s": omega_s, "sigma": sigma,
                "fidelity": sensor.fidelity, "t2": sensor.t2,
                "n_shots": ensemble.n_shots, "m_sensors": ensemble.m_sensors,
                "convention": convention.value},
    )


def gmin_continuous_kernel(
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    omega_s: float,
    sigma: float,
    convention: ToneConvention = ToneConvention.FULL_SPLIT,
) -> SensitivityResult:
    """Closed-form g_min for a continuous two-tone signal.

    At t_n = n periods of the center frequency the baseline rephases
    exactly and the small-g phase variance grows as n^2, so each candidate
    reduces to the Gaussian-kernel form with curvature n^2 * kappa_1; the
    best integer multiple within 5 T2 wins. Unlike the root-found variant
    this extends to arbitrarily small contrast (the linearization ignores
    saturation), which is also where its validity flag turns False.
    """
    kappa_1 = small_g_curvature(omega_s, sigma, convention)
    period = 2 * math.pi / omega_s
    n_max = max(1, int(5.0 * sensor.t2 / period))

    def g_at(n: int) -> float:
        c = contrast(sensor, n * period)
        return gmin_gaussian_kernel(c, ensemble, n * n * kappa_1)

    best_n = min(range(1, n_max + 1), key=g_at)
    g = g_at(best_n)
    return _closed_form(g, best_n * best_n * kappa_1 * g * g, sensor, ensemble,
                        t_opt=best_n * period, n_periods=best_n, omega_s=omega_s,
                        sigma=sigma, convention=convention.value)


def gmin_at_optimum(
    scenario: str,
    sensor: SensorModel,
    ensemble: EnsembleConfig,
    *,
    omega_s: float | None = None,
    sigma: float | None = None,
    convention: ToneConvention = ToneConvention.FULL_SPLIT,
) -> SensitivityResult:
    """g_min of a scenario at its own optimal integration time.

    constant: at T2, the argmin of 1/(t C(t)) for every fidelity;
    variance: at optimal_integration_time; continuous_two_tone: the kernel
    form at its best period multiple (the root-found variant saturates at
    low contrast and cannot cover a whole fidelity grid); intermittent:
    pinned to one center period. The two-tone scenarios need omega_s and
    sigma.
    """
    if scenario == "constant":
        return gmin_constant(sensor, ensemble, sensor.t2)
    if scenario == "variance":
        t_opt = optimal_integration_time("variance", sensor, ensemble).t_opt
        return gmin_variance(sensor, ensemble, t_opt)
    two_tone = {"continuous_two_tone": gmin_continuous_kernel,
                "intermittent": gmin_intermittent}
    if scenario not in two_tone:
        raise ValueError(f"unknown scenario: {scenario}")
    if omega_s is None or sigma is None:
        raise ValueError(f"scenario {scenario} needs omega_s and sigma")
    return two_tone[scenario](sensor, ensemble, omega_s, sigma, convention)


def compensation_sensors(
    scenario: str,
    fidelity: float,
    *,
    n_shots: int,
    t2: float,
    omega_s: float | None = None,
    sigma: float | None = None,
    convention: ToneConvention = ToneConvention.FULL_SPLIT,
) -> int:
    """Smallest sensor count matching one unity-fidelity sensor's g_min.

    The ceiling of compensation_threshold: both sides use the same N and
    their scenario-optimal integration time (the burst scenario is pinned
    to t1 = one center period on both sides).
    """
    return math.ceil(compensation_threshold(
        scenario, fidelity, n_shots=n_shots, t2=t2, omega_s=omega_s, sigma=sigma,
        convention=convention))


def compensation_threshold(
    scenario: str,
    fidelity: float,
    *,
    n_shots: int,
    t2: float,
    omega_s: float | None = None,
    sigma: float | None = None,
    convention: ToneConvention = ToneConvention.FULL_SPLIT,
) -> float:
    """Real-valued sensor count where g_min(F, M) = g_min(1, 1) exactly.

    The integer compensation count is the ceiling of this; exposing the real
    threshold separates the physics (how close M*F^2 sits to 1) from integer
    rounding, which dominates when the count is small.
    """
    if scenario not in ("constant", "variance", "intermittent"):
        raise ValueError(f"unknown scenario: {scenario}")
    if not (0 < fidelity <= 1):
        raise ValueError("fidelity must be in (0, 1]")
    target = gmin_at_optimum(scenario, SensorModel(1.0, t2), EnsembleConfig(n_shots, 1),
                             omega_s=omega_s, sigma=sigma, convention=convention).g_min
    if scenario == "constant":
        return 1.0 / fidelity**2

    def excess(log_m: float) -> float:
        # the kernel depends on N and M only through N*M, so real M is fine
        nm = n_shots * math.exp(log_m)
        sensor = SensorModel(fidelity, t2)
        if scenario == "variance":
            def g_at(t: float) -> float:
                return math.sqrt(_kernel_x(contrast(sensor, t), nm) / (t * t / 2.0))
            g = g_at(_golden_min(g_at, 1e-6 * t2, 5.0 * t2, 1e-5 * t2))
        else:
            t1 = 2 * math.pi / omega_s
            kappa = small_g_curvature(omega_s, sigma, convention)
            g = math.sqrt(_kernel_x(contrast(sensor, t1), nm) / kappa)
        return g - target

    lo, hi = 0.0, math.log(2.0)
    while excess(hi) > 0:
        hi += math.log(2.0)
        if hi > 40:
            raise ValueError("compensation threshold exceeds search bound")
    while excess(lo) < 0 and lo > -40:
        lo -= math.log(2.0)
    return math.exp(brentq(excess, lo, hi, rtol=1e-12))


def continuous_optimal_u(fidelity: float) -> float:
    """Self-consistent optimum u = (t/T2)^2 for continuous estimation in the
    projection-noise-floor regime: u = 2 (1 - F^2 e^{-u}).

    u(1) = 1.5936 (t = 1.2624 T2); u -> 2 (t -> sqrt(2) T2) as F -> 0.
    """
    u = 2.0
    for _ in range(200):
        nxt = 2.0 * (1.0 - fidelity**2 * math.exp(-u))
        if abs(nxt - u) < 1e-15:
            return nxt
        u = nxt
    return u


def _asymptotic_comp_same_t(c_fid: float, c_unit: float) -> float:
    """Noise-floor-dominated compensation with both sides at the same time."""
    return (1.0 - c_fid**2) * c_unit**2 / (c_fid**2 * (1.0 - c_unit**2))


def excess_sensors(fidelity: float, t1_over_t2: float) -> float:
    """Sensor factor for a burst-limited measurement to match the continuous
    one at the same fidelity (noise-floor-dominated regime, N-free).

    The burst side is pinned to t1; the continuous side sits at its
    self-consistent optimal time, where the curvature scales as t^2 and so
    the compensation picks up a (t_opt/t1)^4 leverage. Unity fidelity gives
    exactly 1 for every t1; for F well below the burst contrast the factor
    grows as 1/t1^2.
    """
    if not (0 < fidelity <= 1):
        raise ValueError("fidelity must be in (0, 1]")
    if not (0 < t1_over_t2 <= 5):
        raise ValueError("t1_over_t2 must be in (0, 5]")
    u1 = t1_over_t2**2  # (t1/T2)^2 for the burst side
    c_burst_fid = fidelity * math.exp(-u1 / 2.0)
    c_burst_unit = math.exp(-u1 / 2.0)
    m_burst = _asymptotic_comp_same_t(c_burst_fid, c_burst_unit)

    u_fid = continuous_optimal_u(fidelity)
    u_unit = continuous_optimal_u(1.0)
    c_cont_fid = fidelity * math.exp(-u_fid / 2.0)
    c_cont_unit = math.exp(-u_unit / 2.0)
    # curvature scales as t^2, so each continuous side carries a u^2 leverage
    m_cont = ((1.0 - c_cont_fid**2) / (c_cont_fid**2 * u_fid**2)) / (
        (1.0 - c_cont_unit**2) / (c_cont_unit**2 * u_unit**2)
    )
    return m_burst / m_cont
