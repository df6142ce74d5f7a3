"""End-to-end acceptance checks, one per shipped guarantee.

Each test exercises one headline behavior at its stated tolerance and
enforces the advertised runtime budget on a laptop-class CPU. Seeds and
parameter draws are pinned so every run sees the same data.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import chi2

from ramsey_sensing.cli import main
from ramsey_sensing.experiments import (
    FIG3_PARAMS,
    _fidelity_grid,
    run_experiment_replica,
    run_fidelity_degradation,
    run_fig3,
)
from ramsey_sensing.montecarlo import estimate_population, simulate_shots
from ramsey_sensing.sensitivity import (
    compensation_threshold,
    excess_sensors,
    gmin_constant,
    gmin_gaussian_kernel,
    mc_gmin_crossing,
    optimal_integration_time,
)
from ramsey_sensing.sensor import (
    EnsembleConfig,
    SensorModel,
    excitation_probability,
    mean_population,
)
from ramsey_sensing.signals import (
    Constant,
    TwoToneStochastic,
    phase_variance_exact,
    small_g_curvature,
)
from ramsey_sensing.streams import derive_stream

pytestmark = pytest.mark.acceptance

TWO_PI = 2 * math.pi
MASTER_SEED = 2026  # namespace root for every randomized acceptance check


def check_named(report, name):
    """The one check of report with this name."""
    (check,) = [c for c in report.checks if c.name == name]
    return check


def test_constant_closed_form_concordant_with_projective_monte_carlo():
    """Closed-form minimum detectable constant signal agrees within 3% with
    the SNR=1 crossing found by simulating projective shots (1e5 per
    candidate, geometric bisection to 1% in g) at 10 random operating
    points. Budget: 1 minute."""
    start = time.perf_counter()
    params = derive_stream(MASTER_SEED, 1, 0)
    errors = []
    for i in range(10):
        f = params.uniform(0.55, 0.98)
        t2 = params.uniform(0.5e-3, 20e-3)
        t_i = params.uniform(0.3, 1.2) * t2
        n = int(params.integers(10, 26))
        m = int(params.integers(4, 17))
        # quadrature bias: the closed form describes slope sensing
        sensor = SensorModel(f, t2, theta=math.pi / 2)
        ensemble = EnsembleConfig(n, m)
        g_cf = gmin_constant(sensor, ensemble, t_i).g_min
        g_mc = mc_gmin_crossing(
            Constant(0.0), sensor, ensemble, t_i,
            derive_stream(MASTER_SEED, 1, 10 + i),
            bracket_center=g_cf, n_shots=100_000,
        ).g_min
        errors.append(abs(g_mc - g_cf) / g_cf)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f} s"
    assert max(errors) <= 0.03, f"worst relative error {max(errors):.4f}"


def test_sensor_compensation_follows_inverse_square_fidelity():
    """Constant-signal compensation returns exactly ceil(1/F^2) for
    F = 0.1 .. 0.9; the variance-signal threshold stays within
    [0.7, 1.5]/F^2 and its integer count is the threshold's ceiling.
    Budget: 1 second."""
    start = time.perf_counter()
    rows = []
    for k in range(1, 10):
        f = k / 10.0
        # exact-integer boundary: 1/F^2 = 4 at F = 0.5, where the ceiling
        # has no headroom; the threshold is computed so the count still
        # matches the mathematical ceil(1/F^2) on every grid value
        expected = math.ceil(1 / Fraction(k, 10) ** 2)
        m_const = math.ceil(compensation_threshold("constant", f, n_shots=1000, t2=10e-3))
        th_var = compensation_threshold("variance", f, n_shots=1000, t2=10e-3)
        m_var = math.ceil(th_var)
        rows.append((f, expected, m_const, m_var, th_var))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f} s"
    for f, expected, m_const, m_var, th_var in rows:
        assert m_const == expected, f"constant compensation at F={f}"
        assert 0.7 / f**2 <= th_var <= 1.5 / f**2, f"variance threshold at F={f}"
        assert m_var == math.ceil(th_var), f"variance count at F={f}"


def test_compensation_law_holds_in_each_regime():
    """At fig3's N = 1000 (NM >= 1000, the projection-noise-floor regime),
    T2 = 10 ms and tones, over the whole fidelity grid: the constant signal
    recovers with exactly M F^2 = 1; the continuous stochastic signals, the
    variance one and the two tones sensed at period multiples, need
    1 <= M F^2 <= e^2 u1^2 c1^2 / (4 (1 - c1^2)) = 1.19631, the variance
    row's NM -> infinity limit; the intermittent signal needs more than the
    variance one at every F < 1. Budget: 1 second."""
    start = time.perf_counter()
    # u1 = 2 (1 - e^{-u1}), the variance optimum (t/T2)^2 as NM -> infinity,
    # solved here by brentq; the bracket [0.5, 2] excludes the root u = 0
    u1 = brentq(lambda u: u - 2.0 * (1.0 - math.exp(-u)), 0.5, 2.0, xtol=1e-14)
    c1 = math.exp(-u1 / 2.0)
    limit = math.e**2 * u1**2 * c1**2 / (4.0 * (1.0 - c1**2))
    tones = {"omega_s": FIG3_PARAMS["omega_s"], "sigma": FIG3_PARAMS["sigma"]}
    rows = []
    for f in _fidelity_grid():
        m_f2 = {scenario: compensation_threshold(scenario, f, n_shots=1000, t2=10e-3,
                                                 **tones) * f * f
                for scenario in ("constant", "variance", "continuous_two_tone",
                                 "intermittent")}
        rows.append((f, m_f2))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f} s"
    for f, m_f2 in rows:
        assert abs(m_f2["constant"] - 1.0) <= 1e-12, f"constant at F={f}"
        for scenario in ("variance", "continuous_two_tone"):
            assert 1.0 <= m_f2[scenario] <= limit, f"{scenario} at F={f}"
        if f < 1.0:
            assert m_f2["intermittent"] > m_f2["variance"], f"intermittent at F={f}"


def test_contrast_loss_inversion_root_is_positive_branch():
    """The closed-form root of NM C^2 x^2 - 2 C^2 x - (1 - C^2) = 0 matches
    a bracketing root of the SNR=1 condition to 1e-9 relative over a
    100-point (C, NM, kappa) grid; the naive radicand C^2 + (1 - NM C^2)
    goes negative once NM C^2 > 1 + C^2, so only the positive quadratic
    branch is usable. Budget: 1 second."""
    start = time.perf_counter()
    kappa_1 = small_g_curvature(TWO_PI * 2000, TWO_PI * 275)
    c_grid = [0.05 + 0.1 * j for j in range(10)]
    nm_grid = [int(round(v)) for v in np.logspace(1, 6, 10)]
    worst = 0.0
    for j, c in enumerate(c_grid):
        for k, nm in enumerate(nm_grid):
            kappa = kappa_1 * ((j + k) % 10 + 1) ** 2

            def snr_gap(x, c=c, nm=nm):
                # SNR=1 with the linearized kernel response:
                # sqrt(NM) C x = sqrt(1 - C^2 + 2 C^2 x), x = kappa g^2
                return math.sqrt(nm) * c * x - math.sqrt(1.0 - c * c + 2.0 * c * c * x)

            hi = 1.0 / nm
            while snr_gap(hi) < 0.0:
                hi *= 2.0
            x_root = brentq(snr_gap, 1e-18 / nm, hi, rtol=1e-14)
            g_oracle = math.sqrt(x_root / kappa)
            g_kernel = gmin_gaussian_kernel(c, nm, kappa)
            worst = max(worst, abs(g_kernel - g_oracle) / g_oracle)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f} s"
    assert worst <= 1e-9, f"worst relative disagreement {worst:.3e}"
    # witness for the sign flip of the naive radicand
    c, nm = 0.9, 1000
    assert nm * c * c > 1 + c * c
    assert c * c + (1.0 - nm * c * c) < 0.0
    assert c * c + nm * (1.0 - c * c) > 0.0  # the usable branch never flips


def test_optimal_integration_times_sit_at_t2_and_near_sqrt2_t2():
    """The constant-signal SNR peaks at t_i = T2 (0.1%). The variance-signal
    optimum sits at sqrt(u*) T2 in the projection-noise-floor regime (large
    NM), where u* = 2 (1 - F^2 e^{-u*}) minimizes x/t^2 with the kernel root
    x ~ sqrt((1 - C^2)/NM)/C and C = F e^{-u/2}. That is 1.2624 T2 at F = 1
    and tends to sqrt(2) T2 as F -> 0, the readout-limited regime where the
    "near sqrt(2) T2" statement holds. At finite NM the optimum lies above
    sqrt(u*) T2 and falls toward it as NM grows. Budget: 1 second."""
    start = time.perf_counter()
    t2 = 10e-3
    ens = EnsembleConfig(1000, 1)
    t_const = optimal_integration_time("constant", SensorModel(1.0, t2), ens)
    # Slack for the ordering bounds, in units of T2: covers the golden-section
    # error (~1e-5 T2) and, at F = 0.01 and NM = 1e3, the finite-NM shift of
    # the argmin to ~7e-5 T2 above sqrt(2) T2.
    slack = 2e-4
    # u* solved here by brentq, independently of the package's optimizer; the
    # bracket [0.5, 2] excludes the spurious root u = 0 at F = 1.
    root_u = {f: brentq(lambda u, f=f: u - 2.0 * (1.0 - f * f * math.exp(-u)),
                        0.5, 2.0, xtol=1e-14)
              for f in (1.0, 0.5, 0.1, 0.01)}
    ratios = {
        (f, nm): optimal_integration_time(
            "variance", SensorModel(f, t2), EnsembleConfig(nm, 1)) / t2
        for f in root_u for nm in (1_000, 1_000_000)
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f} s"
    assert abs(t_const / t2 - 1.0) <= 1e-3
    for f, u in root_u.items():
        r_star = math.sqrt(u)
        r_small, r_large = ratios[f, 1_000], ratios[f, 1_000_000]
        assert abs(r_large / r_star - 1.0) <= 1e-3, (
            f"F={f}: variance optimum at NM=1e6 is {r_large:.6f} T2, "
            f"model limit sqrt(u*) = {r_star:.6f} T2")
        assert r_large < r_small, (
            f"F={f}: optimum does not fall with NM "
            f"({r_small:.6f} T2 at 1e3, {r_large:.6f} T2 at 1e6)")
        assert r_star - slack <= r_large, (
            f"F={f}: optimum {r_large:.6f} T2 below sqrt(u*) = {r_star:.6f} T2")
        assert r_small <= math.sqrt(2.0) + slack, (
            f"F={f}: optimum {r_small:.6f} T2 above sqrt(2) T2")
    # sqrt(u*) rises toward sqrt(2) as the readout fidelity falls
    limits = [math.sqrt(u) for u in root_u.values()]
    assert limits == sorted(limits)
    assert abs(limits[0] - 1.2624) <= 1e-4
    assert abs(limits[-1] - math.sqrt(2.0)) <= 1e-4


def test_burst_snr_curve_peaks_at_period_multiples_with_bounded_global_max():
    """For a two-tone signal at 1 kHz center, 500 Hz amplitude std, 10 Hz
    separation, N=1000, M=1: SNR(t_i) has local maxima at 1, 2, 3 ms within
    grid resolution and its global maximum inside [1.2, 1.7]*T2, confirmed
    by the Monte-Carlo variant. Budget: 2 minutes."""
    start = time.perf_counter()
    report = run_fig3(42)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.1f} s"
    p = report.parameters
    assert p["omega_s_hz"] == pytest.approx(1000.0, rel=1e-12)
    assert p["sigma_hz"] == pytest.approx(500.0, rel=1e-12)
    assert p["g_hz"] == pytest.approx(10.0, rel=1e-12)
    assert p["n_shots"] == 1000 and p["m_sensors"] == 1
    assert check_named(report, "snr_local_maxima_at_period_multiples").passed
    ratio = check_named(report, "snr_global_max_location").measured
    assert 1.2 - 1e-9 <= ratio <= 1.7, f"global maximum at {ratio}*T2"
    assert check_named(report, "snr_mc_concordance").passed


def test_burst_two_tone_sensitivity_reproduces_290_hz():
    """With a 2 kHz center, 275 Hz amplitude std, fringe contrast 0.903 at
    the burst time, and N=1000 single-sensor shots, the closed form puts
    the minimum detectable tone separation within 2% of 290 Hz; the full
    simulation replica's empirical value (no added noise, i.e. projection
    limited) lands in [250, 340] Hz and does not improve when 17% excess
    noise is added. Budget: 3 minutes."""
    start = time.perf_counter()
    kappa = small_g_curvature(TWO_PI * 2000, TWO_PI * 275)
    g_analytic = gmin_gaussian_kernel(0.903, 1000, kappa)
    report = run_experiment_replica(7)
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0, f"runtime budget exceeded: {elapsed:.1f} s"
    analytic_hz = g_analytic / TWO_PI
    assert abs(analytic_hz - 290.0) <= 0.02 * 290.0, f"analytic {analytic_hz} Hz"
    table = report.tables["gmin_summary"]
    summary = dict(zip(table["variant"], zip(table["gmin_hz"], table["resolved"])))
    qpn_hz, resolved = summary["qpn_limited"]
    assert resolved, "projection-limited scan did not resolve a threshold"
    assert 250.0 <= qpn_hz <= 340.0, f"empirical {qpn_hz} Hz"
    exc_hz, _ = summary["with_excess"]
    assert exc_hz > qpn_hz, "excess noise should raise the detection threshold"


def test_exact_phase_variance_curvature_and_monte_carlo_population():
    """The exact accrued-phase variance of a full-split two-tone signal has
    small-g curvature Var/g^2 -> 8 pi^2 sigma^2 / omega_s^4 (1e-6 relative
    at g = omega_s/1e4, matching the e^{-Var/2} kernel's 4 pi^2
    coefficient), and simulated mean populations match the exact formula
    within 3 sigma on a 20-point (g, t_i) grid. Budget: 2 minutes."""
    start = time.perf_counter()
    omega_s, sigma_amp = TWO_PI * 1000, TWO_PI * 500
    g_small = omega_s / 1e4
    period = TWO_PI / omega_s
    spec_small = TwoToneStochastic(omega_s, g_small, sigma_amp)
    var = phase_variance_exact(spec_small, period)
    curvature = var / g_small**2
    target = 8.0 * math.pi**2 * sigma_amp**2 / omega_s**4

    sensor = SensorModel(0.85, 10e-3)
    ensemble = EnsembleConfig(40_000, 1)
    pulls = []
    idx = 0
    for g_hz in (10.0, 50.0, 200.0, 700.0, 2000.0):
        for t_ms in (0.35, 0.8, 1.3, 2.2):
            spec = TwoToneStochastic(omega_s, TWO_PI * g_hz, sigma_amp)
            t_i = t_ms * 1e-3
            p_model = mean_population(spec, sensor, t_i)
            table = simulate_shots(spec, sensor, ensemble, t_i,
                                   derive_stream(MASTER_SEED, 7, 20 + idx))
            p_hat = estimate_population(table.counts, ensemble.m_sensors).p_hat
            shot_sigma = math.sqrt(p_model * (1 - p_model) / ensemble.total)
            pulls.append(abs(p_hat - p_model) / shot_sigma)
            idx += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.1f} s"
    assert abs(curvature / target - 1.0) <= 1e-6
    assert max(pulls) <= 3.0, f"worst population pull {max(pulls):.2f} sigma"


def test_burst_excess_sensor_factor_scales_inverse_square_duration():
    """At F=0.2 the excess-sensor factor satisfies M_ex * t1^2 = const
    within 5% over t1/T2 in [1e-3, 1e-2]; at F=1 the curve is flat within
    1%; and the burst compensation count at t1/T2 = 1e-3 for F << 1 matches
    (1/F^2)/(1 - e^{-2 chi(t1)}) ~ 1e6/F^2 within 10%. Budget: 1 second."""
    start = time.perf_counter()
    t1_grid = np.logspace(-3, -2, 10)
    products = [excess_sensors(0.2, t1) * t1**2 for t1 in t1_grid]
    unity = [excess_sensors(1.0, t1) for t1 in t1_grid]

    t2 = 1.0
    t1 = 1e-3
    chi = t1**2 / (2.0 * t2**2)
    ratios = []
    for f in (0.05, 0.01):
        m = math.ceil(compensation_threshold(
            "intermittent", f, n_shots=10**11, t2=t2,
            omega_s=TWO_PI / t1, sigma=TWO_PI * 100))
        asymptote = (1.0 / f**2) / (-math.expm1(-2.0 * chi))
        ratios.append(m / asymptote)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f} s"
    assert max(products) / min(products) - 1.0 <= 0.05
    assert max(unity) / min(unity) - 1.0 <= 0.01
    for f, ratio in zip((0.05, 0.01), ratios):
        assert abs(ratio - 1.0) <= 0.10, f"F={f}: M / asymptote = {ratio:.4f}"


def test_shot_engine_variance_matches_projection_noise_chi_squared():
    """For deterministic signals the empirical Var(p_hat) over 1000
    repetitions matches p(1-p)/(NM) at 10 pinned operating points: each
    scaled sum of squares stays inside the central 99.8% chi-squared band.
    Budget: 1 minute."""
    start = time.perf_counter()
    points = [
        (0.9, 10e-3, 0.0, 5e-3, 100, 1, 0.0),
        (0.9, 10e-3, 0.0, 5e-3, 100, 4, 50.0),
        (0.7, 8e-3, math.pi / 2, 4e-3, 200, 2, 30.0),
        (1.0, 12e-3, 0.0, 6e-3, 150, 1, 0.0),
        (0.6, 5e-3, math.pi / 3, 2e-3, 250, 3, 80.0),
        (0.85, 20e-3, math.pi / 2, 10e-3, 120, 8, 10.0),
        (0.95, 15e-3, 0.0, 3e-3, 300, 1, 40.0),
        (0.5, 6e-3, math.pi, 3e-3, 180, 2, 0.0),
        (0.8, 9e-3, 1.0, 7e-3, 140, 5, 60.0),
        (0.99, 11e-3, 2.0, 5e-3, 220, 2, 20.0),
    ]
    reps = 1000
    lo, hi = chi2.ppf(0.001, reps - 1), chi2.ppf(0.999, reps - 1)
    stats = []
    for i, (f, t2, theta, t_i, n, m, g_hz) in enumerate(points):
        sensor = SensorModel(f, t2, theta)
        ensemble = EnsembleConfig(n, m)
        spec = Constant(TWO_PI * g_hz)
        p = float(excitation_probability(sensor, t_i, spec.g * t_i))
        rng = derive_stream(MASTER_SEED, 9, i)
        p_hats = np.array([
            estimate_population(simulate_shots(spec, sensor, ensemble, t_i, rng).counts, m).p_hat
            for _ in range(reps)
        ])
        qpn = p * (1.0 - p) / ensemble.total
        stats.append(float(np.sum((p_hats - p_hats.mean()) ** 2) / qpn))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f} s"
    for i, stat in enumerate(stats):
        assert lo <= stat <= hi, f"point {i}: chi2 {stat:.1f} outside [{lo:.1f}, {hi:.1f}]"


def test_degraded_readout_follows_burst_closed_form_not_sqrt_fidelity():
    """Re-deriving the empirical detection threshold after post-hoc readout
    bit flips (probabilities 0, 0.05, 0.1, 0.2, 0.3) tracks the burst
    closed form's fidelity dependence with a lower residual sum of squares
    than a 1/sqrt(F) model anchored at zero flips. Budget: 5 minutes."""
    start = time.perf_counter()
    report = run_fidelity_degradation(7)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"runtime budget exceeded: {elapsed:.1f} s"
    assert report.parameters["flip_grid"] == [0.0, 0.05, 0.1, 0.2, 0.3]
    check = check_named(report, "burst_scaling_beats_sqrt")
    assert check.passed
    assert check.measured < check.expected, (
        f"rss closed form {check.measured:.1f} vs sqrt model {check.expected:.1f}")


def test_study_pipeline_outputs_are_byte_identical_across_runs_and_threads(tmp_path):
    """Running the burst scaling study twice with the same seed, then once
    more with four worker threads, produces byte-identical CSVs and
    manifests."""
    outs = [tmp_path / name for name in ("a", "b", "c")]
    for out, extra in zip(outs, ([], [], ["--threads", "4"])):
        rc = main(["scan", "fig3", "--seed", "42", "--out", str(out)] + extra)
        assert rc == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert "manifest.json" in names and "fig3a_snr.csv" in names
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), name


@pytest.mark.parametrize("command", [["replica"], ["replica", "degrade"]],
                         ids=["replica", "degrade"])
def test_replica_pipeline_outputs_are_byte_identical_across_runs_and_threads(
        tmp_path, command):
    """Running the measurement replica, or its readout degradation study,
    twice with the same seed, then once more with four worker threads,
    produces byte-identical CSVs and manifests."""
    outs = [tmp_path / name for name in ("a", "b", "c")]
    for out, extra in zip(outs, ([], [], ["--threads", "4"])):
        assert main([*command, "--seed", "7", "--out", str(out)] + extra) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert "manifest.json" in names and len(names) > 1
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), name
