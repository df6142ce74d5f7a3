"""Study pipelines emitting named-column CSV tables, checks, and manifests.

Four pipelines: the fidelity-compensation study (fig2), the burst-signal
scaling study (fig3), the measurement replica (11 repetitions of N=1000
single-sensor shots against a burst two-tone signal), and the readout
degradation study built on the replica's shot tables. fig2 and fig3's
panels (b) and (c) are one fidelity study. Every pipeline is deterministic
under its master seed regardless of worker count: each scan point derives
its own counter-based stream.

The replica and degradation studies share one setup, held as module data:
the signal at each grid point, the sensor and the ensemble, and one
simulation of a grid point's (repetitions, N) block of single-shot counts.
Both reduce each point's block inside its own worker task, so neither holds
more than one block per worker and memory scales with repetitions*N, not
grid*repetitions*N: the replica keeps each point's population estimate, the
degradation study each table's excited count, on which the readout flips
then act, two binomials per table. Both studies invert a (grid,
repetitions) p_hat table through one scan helper.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .estimators import (
    BiasScan,
    GminEstimate,
    bias_scan_table,
    empirical_gmin,
    invert_frequency_separation,
)
from .io_utils import write_csv, write_json
from .montecarlo import (
    PopulationEstimate,
    apply_readout_degradation,
    estimate_population,
    excess_noise_channel,
    simulate_shots,
)
from .sensor import EnsembleConfig, SensorModel, contrast, mean_population, qpn_variance
from .sensitivity import (
    compensation_threshold,
    excess_sensors,
    gmin_at_optimum,
    mc_snr,
    snr_curve,
)
from .signals import IntermittentTwoTone, TwoToneStochastic
from .streams import derive_stream

__all__ = [
    "Check",
    "PipelineReport",
    "run_fig2",
    "run_fig3",
    "run_experiment_replica",
    "run_fidelity_degradation",
    "write_report",
    "REPLICA_PARAMS",
]

TWO_PI = 2 * math.pi

# stream namespaces; the degradation study reuses the replica's table family
_NS_FIG3 = 3
_NS_REPLICA = 11
_NS_DEGRADE = 5


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: float
    expected: float
    tolerance: float
    note: str = ""


@dataclass
class PipelineReport:
    pipeline_id: str
    seed: int | None
    parameters: dict
    tables: dict[str, dict[str, object]] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def write_report(report: PipelineReport, out_dir) -> None:
    """One CSV per table plus a JSON manifest; stable bytes for fixed inputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in sorted(report.tables.items()):
        write_csv(out / f"{name}.csv", table)
    manifest = {
        "pipeline_id": report.pipeline_id,
        "seed": report.seed,
        "parameters": report.parameters,
        "checks": [asdict(c) for c in report.checks],
        "tables": sorted(f"{name}.csv" for name in report.tables),
    }
    write_json(out / "manifest.json", manifest)


def _pmap(fn, items, threads: int):
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError("threads must be an integer >= 1")
    if threads == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _columns(header: tuple[str, ...], rows: list[tuple]) -> dict[str, list]:
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _fidelity_grid() -> list[float]:
    grid = set(np.logspace(math.log10(0.05), 0.0, 50).tolist())
    grid.add(0.5)  # fig2's half-fidelity checks read this point
    return sorted(grid)


def _loglog_slope(xs, ys) -> float:
    coeffs = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(coeffs[0])


# ----------------------------------------------------------------------
# fidelity compensation study

_RATIO_COLUMNS = ("scenario", "fidelity", "t_opt_s", "gmin_rad_s", "gmin_over_unity")
_COMPENSATION_COLUMNS = ("scenario", "fidelity", "m_sensors", "m_threshold")


def _fidelity_study(scenarios, f_grid, ensemble: EnsembleConfig, t2: float, tones: dict):
    """The rows of the ratio and compensation tables (columns as named above)
    of each scenario over a fidelity grid ending at F = 1, each g_min at M = 1
    and its scenario-optimal time: fig2, and fig3's panels (b) and (c)."""
    ratio_rows, comp_rows = [], []
    for scenario in scenarios:
        results = [gmin_at_optimum(scenario, SensorModel(f, t2), ensemble, **tones)
                   for f in f_grid]
        g_unity = results[-1].g_min  # the grid ends at F = 1
        for f, result in zip(f_grid, results):
            ratio_rows.append((scenario, f, result.t_i, result.g_min, result.g_min / g_unity))
            m_real = compensation_threshold(scenario, f, n_shots=ensemble.n_shots, t2=t2, **tones)
            comp_rows.append((scenario, f, math.ceil(m_real), m_real))
    return ratio_rows, comp_rows


def run_fig2(*, n_shots: int = 1000, t2: float = 10e-3) -> PipelineReport:
    """Sensitivity loss and sensor compensation versus fidelity.

    Emits the g_min(F)/g_min(1) ratio at fixed M=1 (each point at its
    scenario-optimal integration time) and the integer/real sensor counts
    that recover the unity-fidelity sensitivity.
    """
    f_grid = _fidelity_grid()
    scenarios = ("constant", "variance")
    ratio_rows, comp_rows = _fidelity_study(scenarios, f_grid, EnsembleConfig(n_shots, 1), t2, {})

    report = PipelineReport(
        "fig2",
        seed=None,
        parameters={"n_shots": n_shots, "m_sensors": 1, "t2_s": t2,
                    "scenarios": list(scenarios), "f_grid_size": len(f_grid)},
    )
    report.tables["sensitivity_ratio"] = _columns(_RATIO_COLUMNS, ratio_rows)
    report.tables["compensation"] = _columns(_COMPENSATION_COLUMNS, comp_rows)

    by = {(scenario, f): ratio for scenario, f, _, _, ratio in ratio_rows}
    sensors_by = {(scenario, f): m for scenario, f, m, _ in comp_rows}
    ratio = by[("constant", 0.5)]
    report.checks.append(Check(
        "constant_half_fidelity_ratio", abs(ratio - 2.0) < 1e-9, ratio, 2.0, 1e-9))
    m = sensors_by[("constant", 0.5)]
    report.checks.append(Check(
        "constant_half_fidelity_sensors", m == 4, m, 4, 0))
    for scenario in scenarios:
        ratio1 = by[(scenario, 1.0)]
        m1 = sensors_by[(scenario, 1.0)]
        report.checks.append(Check(
            f"{scenario}_unity_ratio", abs(ratio1 - 1.0) < 1e-12, ratio1, 1.0, 1e-12))
        report.checks.append(Check(f"{scenario}_unity_sensors", m1 == 1, m1, 1, 0))
    small = [f for f in f_grid if f <= 0.2]
    slope = _loglog_slope(small, [by[("variance", f)] for f in small])
    report.checks.append(Check(
        "variance_small_f_slope", abs(slope + 0.5) < 0.05, slope, -0.5, 0.05))
    return report


# ----------------------------------------------------------------------
# burst-signal scaling study

FIG3_PARAMS = {
    "omega_s": TWO_PI * 1000.0,
    "sigma": TWO_PI * 500.0,
    "g": TWO_PI * 10.0,
    "n_shots": 1000,
    "m_sensors": 1,
    "t2": 10e-3,
}


def run_fig3(
    seed: int,
    *,
    t2: float = FIG3_PARAMS["t2"],
    threads: int = 1,
    mc_shots: int = 200_000,
) -> PipelineReport:
    """SNR structure, fidelity scaling, compensation, and burst penalty.

    Panels: (a) SNR versus integration time, analytic plus a Monte-Carlo
    variant; (b) g_min versus fidelity for the four scenarios; (c) sensor
    compensation counts; (d) the burst excess-sensor factor M_ex(t1/T2).
    """
    omega_s, sigma_amp = FIG3_PARAMS["omega_s"], FIG3_PARAMS["sigma"]
    g_probe = FIG3_PARAMS["g"]
    ensemble = EnsembleConfig(FIG3_PARAMS["n_shots"], FIG3_PARAMS["m_sensors"])
    sensor = SensorModel(1.0, t2, theta=0.0)
    spec = TwoToneStochastic(omega_s, g_probe, sigma_amp)
    f_grid = _fidelity_grid()
    t1_grid = np.logspace(-3, 0, 30).tolist()

    report = PipelineReport(
        "fig3",
        seed=seed,
        parameters={
            "omega_s_hz": omega_s / TWO_PI, "sigma_hz": sigma_amp / TWO_PI,
            "g_hz": g_probe / TWO_PI, "n_shots": ensemble.n_shots,
            "m_sensors": ensemble.m_sensors, "t2_s": t2, "theta_rad": 0.0,
            "f_grid_size": len(f_grid), "t1_grid_size": len(t1_grid),
            "mc_shots": mc_shots,
        },
    )

    # (a) analytic SNR curve on a fine grid, Monte-Carlo on a coarser one
    # whose every time is also a fine-grid time
    t_fine = [round(k * 5e-5, 10) for k in range(1, 601)]
    analytic = snr_curve(spec, sensor, ensemble, g_probe, t_fine)
    report.tables["fig3a_snr"] = _columns(("t_i_s", "snr"), analytic)

    t_coarse = [round(k * 2.5e-4, 10) for k in range(1, 121)]

    def mc_point(k: int) -> tuple[float, float]:
        # a stream per task: the pool takes all items at once, outliving a family's yields
        rng = derive_stream(seed, _NS_FIG3, 0, k)
        return t_coarse[k], mc_snr(spec, sensor, ensemble, t_coarse[k], rng, mc_shots)

    mc = _pmap(mc_point, range(len(t_coarse)), threads)
    report.tables["fig3a_snr_mc"] = _columns(("t_i_s", "snr"), mc)

    snr_by_t = dict(analytic)
    period = TWO_PI / omega_s
    peak_ok = all(
        snr_by_t[round(n * period, 10)] > snr_by_t[round(n * period - 5e-5, 10)]
        and snr_by_t[round(n * period, 10)] > snr_by_t[round(n * period + 5e-5, 10)]
        for n in (1, 2, 3)
    )
    report.checks.append(Check(
        "snr_local_maxima_at_period_multiples", peak_ok, float(peak_ok), 1.0, 0.0,
        note="SNR curve peaks at 1, 2, 3 ms against both grid neighbors"))
    t_star = max(analytic, key=lambda pair: pair[1])[0]
    ratio = t_star / t2
    report.checks.append(Check(
        "snr_global_max_location", 1.2 - 1e-9 <= ratio <= 1.7, ratio, 1.45, 0.25,
        note="argmax of SNR(t_i) in units of T2"))

    # MC SNR noise: std ~ sqrt(NM/shots) per point; 4 sigma band plus margin
    band = 4.5 * math.sqrt(ensemble.total / mc_shots)
    worst = max(abs(s - snr_by_t[t]) for t, s in mc)
    report.checks.append(Check(
        "snr_mc_concordance", worst <= band, worst, 0.0, band,
        note="max |MC - analytic| SNR over the coarse grid"))

    # (b) g_min versus fidelity and (c) compensation counts, all four
    # scenarios at their optimal times: one fidelity study
    tones = {"omega_s": omega_s, "sigma": sigma_amp}
    scenarios = ("constant", "variance", "continuous_two_tone", "intermittent")
    rows_b, rows_c = _fidelity_study(scenarios, f_grid, ensemble, t2, tones)
    report.tables["fig3b_gmin_vs_fidelity"] = _columns(_RATIO_COLUMNS, rows_b)
    report.tables["fig3c_compensation"] = _columns(_COMPENSATION_COLUMNS, rows_c)
    by = {(scenario, f): (g, ratio) for scenario, f, _, g, ratio in rows_b}

    window = [f for f in f_grid if 0.1 <= f <= 0.5]
    slopes = {}
    for scenario, expected in (("constant", -1.0), ("variance", -0.5),
                               ("continuous_two_tone", -0.5)):
        slopes[scenario] = _loglog_slope(window, [by[(scenario, f)][1] for f in window])
        report.checks.append(Check(
            f"{scenario}_fidelity_slope", abs(slopes[scenario] - expected) < 0.05,
            slopes[scenario], expected, 0.05))
    g_09 = gmin_at_optimum("intermittent", SensorModel(0.9, t2), ensemble, **tones).g_min
    g_10 = by[("intermittent", 1.0)][0]
    slope_near_1 = (math.log(g_10) - math.log(g_09)) / (math.log(1.0) - math.log(0.9))
    report.checks.append(Check(
        "intermittent_slope_near_unity_steeper", slope_near_1 < -0.5,
        slope_near_1, -0.5, 0.0,
        note="log-log slope of intermittent g_min between F=0.9 and 1"))

    # (d) burst excess-sensor factor
    rows_d = [(f, t1, excess_sensors(f, t1)) for f in (1.0, 0.9997, 0.2) for t1 in t1_grid]
    report.tables["fig3d_excess_sensors"] = _columns(("fidelity", "t1_over_t2", "m_ex"), rows_d)

    unity_vals = [m for f, _, m in rows_d if f == 1.0]
    flat = max(unity_vals) / min(unity_vals) - 1.0
    report.checks.append(Check(
        "m_ex_unity_flat", flat < 1e-9, flat, 0.0, 1e-9,
        note="spread of M_ex over t1 at F=1"))
    decade = [(t1, m) for f, t1, m in rows_d if f == 0.2 and 1e-3 <= t1 <= 1e-2]
    slope_d = _loglog_slope([t for t, _ in decade], [m for _, m in decade])
    report.checks.append(Check(
        "m_ex_low_f_slope", abs(slope_d + 2.0) < 0.05, slope_d, -2.0, 0.05))
    return report


# ----------------------------------------------------------------------
# measurement replica

_REPLICA_T1 = 1.0 / 2000.0  # one center period, 0.5 ms
_REPLICA_T2 = 7.97e-3
_REPLICA_CONTRAST = 0.903  # pinned fringe contrast at t1
REPLICA_PARAMS = {
    "omega_s": TWO_PI * 2000.0,
    "sigma": TWO_PI * 275.0,
    "t1": _REPLICA_T1,
    "t2": _REPLICA_T2,
    # fidelity chosen so contrast(t1) is exactly the pinned 0.903
    "fidelity": _REPLICA_CONTRAST / math.exp(-(_REPLICA_T1**2) / (2 * _REPLICA_T2**2)),
    "n_shots": 1000,
    "m_sensors": 1,
    "repetitions": 11,
    "theta": 0.0,
}


# the signal at each grid point: g = 0 plus 21 log-spaced points over 2*pi*[10, 1000] Hz
_REPLICA_SPECS = tuple(
    IntermittentTwoTone(REPLICA_PARAMS["omega_s"], g, REPLICA_PARAMS["sigma"],
                        t_sig=REPLICA_PARAMS["t1"])
    for g in [0.0, *(TWO_PI * hz for hz in np.logspace(1, 3, 21).tolist())])
_REPLICA_SENSOR = SensorModel(REPLICA_PARAMS["fidelity"], REPLICA_PARAMS["t2"],
                              REPLICA_PARAMS["theta"])
_REPLICA_ENSEMBLE = EnsembleConfig(REPLICA_PARAMS["n_shots"], REPLICA_PARAMS["m_sensors"])


def _replica_block(seed: int, gi: int, reps: int) -> np.ndarray:
    """The excited counts of grid point gi's reps tables, shape (reps, n_shots):
    simulate_shots' int64 counts reshaped, each 0 or 1 as M = 1.

    One simulate_shots call over the point's reps streams, derived in one
    call; every table comes from its own stream, so a block is the same
    whichever task or worker simulates it.
    """
    rngs = derive_stream(seed, _NS_REPLICA, 0, gi, shape=(reps,))
    counts = simulate_shots(_REPLICA_SPECS[gi], _REPLICA_SENSOR, _REPLICA_ENSEMBLE,
                            REPLICA_PARAMS["t1"], rngs).counts
    return counts.reshape(reps, -1)


def _scan(p_hat: np.ndarray, sensor: SensorModel) -> tuple[BiasScan, GminEstimate]:
    """Invert a (grid, reps) p_hat table in one call, as the replica's specs
    differ only in g, which the inversion does not read; the scan and its g_min."""
    scan = BiasScan(np.array([spec.g for spec in _REPLICA_SPECS]),
                    *invert_frequency_separation(p_hat, sensor, _REPLICA_SPECS[0]))
    return scan, empirical_gmin(scan)


def run_experiment_replica(
    seed: int, excess_factor: float = 1.17, *, threads: int = 1
) -> PipelineReport:
    """Simulate the burst-measurement experiment end to end.

    11 repetitions of N=1000 single-sensor shots per grid point, estimation
    by exact inversion with the exclusion rule, and the empirical g_min.
    The projection-noise-limited estimates are always computed; when
    excess_factor > 1 a second scan adds matching population jitter, which
    emulates the measured noise floor sitting above projection noise.
    """
    reps = REPLICA_PARAMS["repetitions"]
    sensor, ensemble = _REPLICA_SENSOR, _REPLICA_ENSEMBLE

    points = _pmap(lambda gi: estimate_population(_replica_block(seed, gi, reps),
                                                  ensemble.m_sensors),
                   range(len(_REPLICA_SPECS)), threads)
    est = PopulationEstimate(np.stack([e.p_hat for e in points]),
                             np.stack([e.std_err for e in points]),
                             np.stack([e.qpn_err for e in points]))
    est_x = excess_noise_channel(
        est, excess_factor, derive_stream(seed, _NS_REPLICA, 1, shape=est.p_hat.shape))
    scan_qpn, gmin_qpn = _scan(est.p_hat, sensor)
    scan_exc, gmin_exc = _scan(est_x.p_hat, sensor)
    p_models = [mean_population(spec, sensor, REPLICA_PARAMS["t1"]) for spec in _REPLICA_SPECS]
    analytic = gmin_at_optimum("intermittent", sensor, ensemble,
                               omega_s=REPLICA_PARAMS["omega_s"], sigma=REPLICA_PARAMS["sigma"])

    report = PipelineReport(
        "replica",
        seed=seed,
        parameters={**{k: v for k, v in REPLICA_PARAMS.items()
                       if k not in ("omega_s", "sigma")},
                    "omega_s_hz": REPLICA_PARAMS["omega_s"] / TWO_PI,
                    "sigma_hz": REPLICA_PARAMS["sigma"] / TWO_PI,
                    "excess_factor": excess_factor,
                    "contrast_t1": _REPLICA_CONTRAST},
    )
    qpn = report.tables["estimates_qpn_limited"] = bias_scan_table(scan_qpn)
    report.tables["estimates"] = bias_scan_table(scan_exc)
    report.tables["population"] = {
        "g_applied_hz": qpn["g_applied_hz"], "rep_index": qpn["rep_index"],
        "p_hat": est_x.p_hat.ravel(), "std_err": est_x.std_err.ravel(),
        "qpn_err": est_x.qpn_err.ravel(), "p_hat_qpn_limited": est.p_hat.ravel(),
        "p_model": np.repeat(p_models, reps)}
    report.tables["gmin_summary"] = {
        "variant": ["qpn_limited", "with_excess", "analytic"],
        "gmin_hz": [gmin_qpn.g_min / TWO_PI, gmin_exc.g_min / TWO_PI, analytic.g_min / TWO_PI],
        "resolved": [gmin_qpn.resolved, gmin_exc.resolved, True]}

    # baseline population concordance, averaged over repetitions
    p0_model = p_models[0]
    p0_mean = sum(est.p_hat[0].tolist()) / reps
    sigma_p0 = math.sqrt(qpn_variance(p0_model, ensemble) / reps)
    report.checks.append(Check(
        "baseline_population", abs(p0_mean - p0_model) <= 3 * sigma_p0,
        p0_mean, p0_model, 3 * sigma_p0,
        note="mean p_hat at g=0 vs model, 3 sigma of the rep average"))

    # empirical error vs projection noise at g=0 (projection-limited data)
    qpn_err = math.sqrt(qpn_variance(p0_model, ensemble))
    err_ratio = (sum(est.std_err[0].tolist()) / reps) / qpn_err
    report.checks.append(Check(
        "qpn_error_ratio_g0", 0.9 <= err_ratio <= 1.1, err_ratio, 1.0, 0.1,
        note="mean empirical error over QPN prediction at g=0"))

    expected_hz = 290.0
    meas_hz = gmin_qpn.g_min / TWO_PI
    report.checks.append(Check(
        "gmin_290hz_within_15pct",
        gmin_qpn.resolved and abs(meas_hz - expected_hz) <= 0.15 * expected_hz,
        meas_hz, expected_hz, 0.15 * expected_hz,
        note="projection-noise-limited empirical g_min"))
    report.checks.append(Check(
        "analytic_gmin_290hz_within_2pct",
        abs(analytic.g_min / TWO_PI - expected_hz) <= 0.02 * expected_hz,
        analytic.g_min / TWO_PI, expected_hz, 0.02 * expected_hz))
    if excess_factor > 1.0:
        report.checks.append(Check(
            "gmin_excess_geq_qpn", gmin_exc.g_min >= gmin_qpn.g_min,
            gmin_exc.g_min / TWO_PI, gmin_qpn.g_min / TWO_PI, 0.0,
            note="excess noise cannot improve the empirical g_min; the grid "
                 "quantizes the estimate so equality is allowed"))
    return report


# ----------------------------------------------------------------------
# readout degradation study

def run_fidelity_degradation(
    seed: int,
    flip_grid: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.3),
    *,
    repetitions: int = 44,
    threads: int = 1,
) -> PipelineReport:
    """Re-derive the empirical g_min after post-hoc readout bit flips.

    Base tables extend the replica's stream family (repetition indices
    beyond the replica's 11 continue the same per-point streams, so flip=0
    at 11 repetitions is bit-identical to the replica). Estimation at flip
    probability f uses the channel-scaled calibration C -> (1-2f) C; the
    fidelity is also re-measured from the degraded g=0 tables as a check.
    The g_min(F_eff) curve is compared against the burst closed form and
    against a 1/sqrt(F) scaling anchored at flip=0, so the grid must hold
    0.0 and no probability twice.

    Each worker task holds one grid point's (reps, N) block at a time and
    keeps only each table's excited count, so memory scales with reps*N per
    worker, not grid*reps*N, and p_hat = count/N is estimate_population's
    p_hat bit for bit. Each flip level f > 0 then flips those counts with
    apply_readout_degradation, one stream keyed (flip index, grid point)
    serving that point's reps tables in order: the law of flipping every
    outcome, with two binomials per table.
    """
    if not flip_grid:
        raise ValueError("flip grid must hold at least one probability")
    if any(not (0 <= f < 0.5) for f in flip_grid):
        raise ValueError("flip probabilities must lie in [0, 0.5)")
    if len(set(flip_grid)) != len(flip_grid):
        raise ValueError("flip probabilities must not repeat")
    if 0.0 not in flip_grid:
        raise ValueError("flip grid must hold 0.0, the anchor of the 1/sqrt(F) curve")
    if isinstance(repetitions, bool) or not (isinstance(repetitions, (int, np.integer))
                                             and repetitions >= 2):
        raise ValueError("repetitions must be an integer >= 2")
    flip_grid = tuple(sorted(abs(f) for f in flip_grid))  # -0.0 reads as 0.0
    reps = repetitions
    sensor, ensemble = _REPLICA_SENSOR, _REPLICA_ENSEMBLE
    t1 = REPLICA_PARAMS["t1"]
    decay = contrast(SensorModel(1.0, sensor.t2), t1)
    base = np.stack(_pmap(lambda gi: np.count_nonzero(_replica_block(seed, gi, reps), axis=-1),
                          range(len(_REPLICA_SPECS)), threads))

    deg_rows, est_tables = [], []
    for fi, flip in enumerate(flip_grid):
        excited = base
        if flip:  # flip 0 draws nothing, so it derives no streams
            rngs = derive_stream(seed, _NS_DEGRADE, fi, shape=(len(base),))
            excited = np.stack([apply_readout_degradation(k, ensemble.n_shots, flip, rng)
                                for k, rng in zip(base, rngs)])
        f_eff_expected = (1.0 - 2.0 * flip) * REPLICA_PARAMS["fidelity"]
        sensor_eff = SensorModel(f_eff_expected, sensor.t2, sensor.theta)
        # a 0/1 mean is an exact integer sum over N: estimate_population's p_hat, bit for bit
        p_hat = excited / ensemble.n_shots
        scan, gmin = _scan(p_hat, sensor_eff)
        est_tables.append({"flip_prob": np.full(p_hat.size, flip), **bias_scan_table(scan)})

        # re-measure the effective fidelity from the degraded baseline
        p0_mean = sum(p_hat[0].tolist()) / reps
        f_eff_measured = (1.0 - 2.0 * p0_mean) / decay
        p0_model = mean_population(_REPLICA_SPECS[0], sensor_eff, t1)
        sigma_f = 2.0 * math.sqrt(qpn_variance(p0_model, ensemble) / reps) / decay

        c_eff = contrast(sensor_eff, t1)
        model_hz = gmin_at_optimum("intermittent", sensor_eff, ensemble,
                                   omega_s=REPLICA_PARAMS["omega_s"],
                                   sigma=REPLICA_PARAMS["sigma"]).g_min / TWO_PI
        if fi == 0:  # the sorted grid starts at flip 0, the anchor of the 1/sqrt(F) curve
            anchor_hz, anchor_f = model_hz, f_eff_expected
        deg_rows.append((flip, f_eff_expected, f_eff_measured, sigma_f, c_eff,
                         gmin.g_min / TWO_PI, gmin.resolved, model_hz,
                         anchor_hz / math.sqrt(f_eff_expected / anchor_f)))

    report = PipelineReport(
        "degrade",
        seed=seed,
        parameters={"flip_grid": list(flip_grid), "repetitions": reps,
                    "n_shots": REPLICA_PARAMS["n_shots"],
                    "m_sensors": REPLICA_PARAMS["m_sensors"],
                    "fidelity": REPLICA_PARAMS["fidelity"],
                    "t2_s": REPLICA_PARAMS["t2"], "t1_s": t1,
                    "omega_s_hz": REPLICA_PARAMS["omega_s"] / TWO_PI,
                    "sigma_hz": REPLICA_PARAMS["sigma"] / TWO_PI},
    )
    report.tables["degradation"] = _columns(
        ("flip_prob", "f_eff_expected", "f_eff_measured", "f_eff_sigma",
         "contrast_eff", "gmin_hz", "resolved", "gmin_model_hz", "gmin_sqrt_model_hz"),
        deg_rows)
    report.tables["estimates_degraded"] = {
        name: np.concatenate([t[name] for t in est_tables]) for name in est_tables[0]}

    resolved = [(g, model, sqrt_model) for *_, g, ok, model, sqrt_model in deg_rows if ok]
    rss_model = sum((g - model) ** 2 for g, model, _ in resolved)
    rss_sqrt = sum((g - sqrt_model) ** 2 for g, _, sqrt_model in resolved)
    report.checks.append(Check(
        "burst_scaling_beats_sqrt", rss_model < rss_sqrt, rss_model, rss_sqrt, 0.0,
        note="residual sum of squares of g_min(F_eff), burst closed form vs "
             "1/sqrt(F) anchored at flip=0; resolved rows only"))
    worst_sigma = max(abs(got - want) / sigma for _, want, got, sigma, *_ in deg_rows)
    report.checks.append(Check(
        "f_eff_recovery", worst_sigma <= 3.0, worst_sigma, 0.0, 3.0,
        note="worst |measured - expected| effective fidelity in sigma units"))
    n_resolved = len(resolved)
    need = min(4, len(deg_rows))  # every row of a grid shorter than four
    report.checks.append(Check(
        "gmin_resolved_rows", n_resolved >= need, n_resolved, need, 0.0,
        note="degraded scans that still resolve an empirical g_min"))
    return report
