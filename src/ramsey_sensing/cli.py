"""Command-line front end: one-off sensitivity calculations, shot-table
simulation, and the study pipelines.

Subcommands: analytic, simulate, scan {fig2|fig3}, replica [degrade].
Frequencies cross the boundary in Hz (every flag named *-hz); times are
seconds except the explicit --t2-ms convenience on `scan fig3`. An argument
@PATH is replaced by the flags in that file (shell-style words, # comments),
read in order with the command line: the last value of a flag wins. A flag
that the command path does not read (_READS) is a usage error. Every --out
directory is written by experiments.write_report (simulate: shot_table.csv
and manifest.json). A pipeline gets only the flags given: its defaults live
in its run_* signature.
Exit codes: 0 success / all checks passed, 1 pipeline checks failed, 2 usage
error (an output path that cannot be written among them; an --out whose
first existing ancestor is not a directory exits 2 before any work).
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .io_utils import format_value, write_csv
from .montecarlo import estimate_population, simulate_shots
from .sensor import EnsembleConfig, SensorModel
from .sensitivity import (
    _closed_form,
    gmin_at_optimum,
    gmin_constant,
    gmin_gaussian_kernel,
    gmin_variance,
)
from .signals import (
    Constant,
    IntermittentTwoTone,
    StochasticAmplitude,
    TwoToneStochastic,
    small_g_curvature,
)
from .streams import derive_stream

TWO_PI = 2 * math.pi

_NS_SIMULATE = 0  # stream namespace for ad-hoc shot tables


def _u64(text: str) -> int:
    value = int(text)
    if not (0 <= value < 2**64):
        raise ValueError("seed must fit in 64 unsigned bits")
    return value


def _flip_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, object]]]:
    parser = argparse.ArgumentParser(
        prog="ramsey-sensing",
        description="Sensitivity analysis and simulation for finite-fidelity "
                    "Ramsey sensing of constant, stochastic, and burst signals. "
                    "@PATH reads further arguments from a file.",
        fromfile_prefix_chars="@",
    )
    parser.convert_arg_line_to_args = lambda line: shlex.split(line, comments=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form minimum detectable signal")
    p.add_argument("--scenario", choices=("constant", "variance", "intermittent"),
                   default=None)
    p.add_argument("--fidelity", type=float, default=None)
    p.add_argument("--t2", type=float, default=None, help="coherence time, seconds")
    p.add_argument("--ti", type=float, default=None, help="integration time, seconds")
    p.add_argument("--contrast", type=float, default=None,
                   help="fringe contrast at the burst time, alternative to "
                        "--fidelity/--t2 for the intermittent scenario")
    p.add_argument("--omega-s-hz", type=float, default=None)
    p.add_argument("--sigma-hz", type=float, default=None)
    p.add_argument("--n", type=int, default=None, help="shots")
    p.add_argument("--m", type=int, default=None, help="sensors per shot")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="also write the result as a one-row CSV")

    p = sub.add_parser("simulate", help="simulate a shot table and estimate the population")
    p.add_argument("--scenario",
                   choices=("constant", "stochastic", "two_tone", "intermittent"),
                   default=None)
    p.add_argument("--g-hz", type=float, default=None)
    p.add_argument("--omega-s-hz", type=float, default=None)
    p.add_argument("--sigma-hz", type=float, default=None)
    p.add_argument("--t-sig", type=float, default=None,
                   help="burst duration, seconds (default: one center period)")
    p.add_argument("--fidelity", type=float, default=None)
    p.add_argument("--t2", type=float, default=None)
    p.add_argument("--ti", type=float, default=None)
    p.add_argument("--theta", type=float, default=None, help="bias phase, rad")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)

    p = sub.add_parser("scan", help="run a study pipeline")
    p.add_argument("preset", choices=("fig2", "fig3"))
    p.add_argument("--t2-ms", type=float, default=None,
                   help="coherence time for the fig3 preset, milliseconds")
    p.add_argument("--mc-shots", type=int, default=None,
                   help="shots per Monte-Carlo point in the fig3 preset")

    p = sub.add_parser("replica", help="measurement replica; 'degrade' adds readout bit flips")
    p.add_argument("mode", nargs="?", choices=("degrade",), default=None)
    p.add_argument("--excess", type=float, default=None,
                   help="excess noise factor on the population estimates")
    p.add_argument("--flips", type=_flip_list, default=None,
                   help="comma-separated distinct flip probabilities, 0 among them (degrade)")
    p.add_argument("--reps", type=int, default=None,
                   help="repetitions per grid point (degrade)")

    actions = {}
    for name, p in sub.choices.items():
        # after the command's own flags: an unread-flag error names those first
        p.add_argument("--seed", type=_u64, default=None, metavar="U64")
        p.add_argument("--out", default=None, metavar="DIR")
        p.add_argument("--threads", type=int, default=None, metavar="N",
                       help="worker threads for scan fig3 and replica; outputs do not depend on it")
        actions[name] = {a.dest: a for a in p._actions if a.dest != "help"}
    return parser, actions


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise SystemExit(
                f"error: --{name} is required for scenario "
                f"{getattr(args, 'scenario', None) or getattr(args, 'command')}")


def _default(args: argparse.Namespace, **values) -> None:
    for dest, value in values.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _check_out(out: str) -> None:
    """Exit 2 before any work when --out cannot be made a directory: its
    first existing ancestor, itself included, is not one. Creates nothing."""
    ancestor = Path(out).absolute()
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise SystemExit(f"error: --out {out} cannot be a directory: {ancestor} is not one")


def _print_kv(pairs) -> None:
    for key, value in pairs:
        print(f"{key}={format_value(value)}")


# the flags each command path reads
_ANALYTIC = {"scenario", "n", "m", "csv"}
_SIMULATE = {"scenario", "g_hz", "fidelity", "t2", "ti", "theta", "n", "m", "seed", "out"}
_TONES = {"omega_s_hz", "sigma_hz"}
_READS = {
    "analytic --scenario constant": _ANALYTIC | {"fidelity", "t2", "ti"},
    "analytic --scenario variance": _ANALYTIC | {"fidelity", "t2", "ti"},
    "analytic --scenario intermittent": _ANALYTIC | _TONES | {"fidelity", "t2"},
    "analytic --scenario intermittent --contrast": _ANALYTIC | _TONES | {"contrast"},
    "simulate --scenario constant": _SIMULATE,
    "simulate --scenario stochastic": _SIMULATE,
    "simulate --scenario two_tone": _SIMULATE | _TONES,
    "simulate --scenario intermittent": _SIMULATE | _TONES | {"t_sig"},
    "scan fig2": {"out"},
    "scan fig3": {"t2_ms", "mc_shots", "seed", "out", "threads"},
    "replica": {"excess", "seed", "out", "threads"},
    "replica degrade": {"flips", "reps", "seed", "out", "threads"},
}


def _reject_unread(args: argparse.Namespace, actions: dict[str, argparse.Action]) -> None:
    """Exit 2 naming, in parser order, every flag given that the command
    path does not read; runs before any default is filled."""
    if args.command == "scan":
        path = f"scan {args.preset}"
    elif args.command == "replica":
        path = "replica degrade" if args.mode else "replica"
    else:
        _require(args, "scenario")
        by_contrast = args.command == "analytic" and args.contrast is not None
        path = f"{args.command} --scenario {args.scenario}"
        path += " --contrast" if by_contrast and args.scenario == "intermittent" else ""
    unread = [a.option_strings[0] for dest, a in actions.items()
              if a.option_strings and dest not in _READS[path]
              and getattr(args, dest) is not None]
    if unread:
        raise SystemExit(f"error: {path} does not read {', '.join(unread)}")


def _cmd_analytic(args: argparse.Namespace) -> int:
    _default(args, n=1000, m=1)
    ensemble = EnsembleConfig(args.n, args.m)
    echo: list[tuple[str, object]] = [("scenario", args.scenario)]

    if args.scenario in ("constant", "variance"):
        _require(args, "fidelity", "t2", "ti")
        sensor = SensorModel(args.fidelity, args.t2)
        fn = gmin_constant if args.scenario == "constant" else gmin_variance
        result = fn(sensor, ensemble, args.ti)
        echo += [("fidelity", args.fidelity), ("t2_s", args.t2), ("ti_s", args.ti)]
    else:
        _require(args, "omega-s-hz", "sigma-hz")
        omega_s, sigma = TWO_PI * args.omega_s_hz, TWO_PI * args.sigma_hz
        echo += [("omega_s_hz", args.omega_s_hz), ("sigma_hz", args.sigma_hz)]
        if args.contrast is not None:
            # direct-contrast path: the burst closed form needs only C(t1)
            kappa = small_g_curvature(omega_s, sigma)
            g = gmin_gaussian_kernel(args.contrast, ensemble.total, kappa)
            result = _closed_form(g, kappa * g * g, TWO_PI / omega_s)
            echo.append(("contrast", args.contrast))
        else:
            _require(args, "fidelity", "t2")
            sensor = SensorModel(args.fidelity, args.t2)
            result = gmin_at_optimum("intermittent", sensor, ensemble, omega_s=omega_s, sigma=sigma)
            echo += [("fidelity", args.fidelity), ("t2_s", args.t2)]

    echo += [("n_shots", args.n), ("m_sensors", args.m)]
    pairs = echo + [
        ("g_min_rad_s", result.g_min),
        ("g_min_hz", result.g_min / TWO_PI),
        ("validity", result.validity),
        ("method", result.method),
    ]
    _print_kv(pairs)
    if args.csv:
        write_csv(args.csv, {key: [value] for key, value in pairs})
    return 0


def _signal_from_args(args: argparse.Namespace):
    _require(args, "g-hz")
    g = TWO_PI * args.g_hz
    if args.scenario == "constant":
        return Constant(g)
    if args.scenario == "stochastic":
        return StochasticAmplitude(g)
    _require(args, "omega-s-hz", "sigma-hz")
    omega_s, sigma = TWO_PI * args.omega_s_hz, TWO_PI * args.sigma_hz
    if args.scenario == "two_tone":
        return TwoToneStochastic(omega_s, g, sigma)
    t_sig = args.t_sig if args.t_sig is not None else TWO_PI / omega_s
    return IntermittentTwoTone(omega_s, g, sigma, t_sig)


def _cmd_simulate(args: argparse.Namespace) -> int:
    _require(args, "fidelity", "t2", "ti", "n", "m")
    _default(args, seed=0, theta=0.0, out="runs/simulate")
    _check_out(args.out)
    spec = _signal_from_args(args)
    sensor = SensorModel(args.fidelity, args.t2, args.theta)
    ensemble = EnsembleConfig(args.n, args.m)
    path = (_NS_SIMULATE, 0)
    rng = derive_stream(args.seed, *path)
    counts = simulate_shots(spec, sensor, ensemble, args.ti, rng).counts
    parameters = {"signal": type(spec).__name__, "g_hz": args.g_hz}
    if args.scenario in ("two_tone", "intermittent"):
        parameters.update(omega_s_hz=args.omega_s_hz, sigma_hz=args.sigma_hz)
    if args.scenario == "intermittent":
        parameters["t_sig_s"] = spec.t_sig
    parameters.update(fidelity=args.fidelity, t2_s=args.t2, theta_rad=args.theta,
                      n_shots=args.n, m_sensors=args.m, t_i_s=args.ti, stream_path=list(path))
    experiments.write_report(experiments.PipelineReport(
        "simulate", args.seed, parameters,
        tables={"shot_table": {"shot_index": np.arange(counts.size), "count": counts}},
    ), args.out)
    est = estimate_population(counts, ensemble.m_sensors)
    _print_kv([
        ("shots", ensemble.n_shots), ("sensors", ensemble.m_sensors),
        ("p_hat", est.p_hat), ("std_err", est.std_err), ("qpn_err", est.qpn_err),
        ("table", str(Path(args.out) / "shot_table.csv")),
    ])
    return 0


def _finish_pipeline(report, out_dir: str) -> int:
    experiments.write_report(report, out_dir)
    for check in report.checks:
        verdict = "PASS" if check.passed else "FAIL"
        line = (f"[{verdict}] {check.name}: measured={format_value(check.measured)} "
                f"expected={format_value(check.expected)} "
                f"tolerance={format_value(check.tolerance)}")
        if check.note:
            line += f"  ({check.note})"
        print(line)
    passed = sum(c.passed for c in report.checks)
    print(f"report written to {out_dir}")
    print(f"{passed}/{len(report.checks)} checks passed")
    return 0 if report.all_passed() else 1


def _given(**flags) -> dict[str, object]:
    """The pipeline keywords whose flags were given; every other parameter
    keeps its default in the pipeline's own signature."""
    return {name: value for name, value in flags.items() if value is not None}


def _cmd_scan(args: argparse.Namespace) -> int:
    _default(args, out=f"runs/{args.preset}")
    _check_out(args.out)
    if args.preset == "fig2":
        report = experiments.run_fig2()
    else:
        _default(args, seed=0)
        t2 = None if args.t2_ms is None else args.t2_ms * 1e-3
        report = experiments.run_fig3(
            args.seed, **_given(t2=t2, threads=args.threads, mc_shots=args.mc_shots))
    return _finish_pipeline(report, args.out)


def _cmd_replica(args: argparse.Namespace) -> int:
    _default(args, seed=0, out=f"runs/{args.mode or 'replica'}")
    _check_out(args.out)
    if args.mode == "degrade":
        report = experiments.run_fidelity_degradation(
            args.seed, **_given(flip_grid=args.flips, repetitions=args.reps,
                                threads=args.threads))
    else:
        report = experiments.run_experiment_replica(
            args.seed, **_given(excess_factor=args.excess, threads=args.threads))
    return _finish_pipeline(report, args.out)


_DISPATCH = {
    "analytic": _cmd_analytic,
    "simulate": _cmd_simulate,
    "scan": _cmd_scan,
    "replica": _cmd_replica,
}


def main(argv=None) -> int:
    parser, actions_by_command = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads is not None and args.threads < 1:
            raise SystemExit("error: --threads must be >= 1")
        _reject_unread(args, actions_by_command[args.command])
        return _DISPATCH[args.command](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
