"""Benchmark of ramsey_sensing: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload fig3-mc --seed 42 --seconds 36 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory. With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is the result object; the line before it is the full
report (provenance, timing samples, every per-layer number), which is also
written under ``.perfbench-work/``. Without ``src/ramsey_sensing`` it exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from spans import REPEAT_EXACTLY, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PACKAGE = "ramsey_sensing"
SETUP_RUNS = 5
SETUP_IMPORT = f"import {PACKAGE}.cli, {PACKAGE}.experiments"

# declared in BENCHMARK.json; the full report carries every other number
END_TO_END = {"setup_s": "s", "wall_s": "s", "shots_per_s": "1/s",
              "solves_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "signals.busy_s": "s",
    "signals.sample_realizations.busy_s": "s",
    "signals.accrued_phases.busy_s": "s",
    "signals.values_drawn": "count",
    "signals.realization_bytes_computed": "bytes",
    "sensor.busy_s": "s",
    "sensor.excitation_probability.busy_s": "s",
    "sensor.mean_population.calls": "count",
    "sensor.probability_bytes_computed": "bytes",
    "montecarlo.busy_s": "s",
    "montecarlo.simulate_shots.self_s": "s",
    "montecarlo.ns_per_shot": "ns",
    "montecarlo.simulate_shots.calls": "count",
    "montecarlo.shots": "count",
    "streams.derive_stream.busy_s": "s",
    "streams.us_per_stream": "us",
    "streams.derive_stream.calls": "count",
    "sensitivity.busy_s": "s",
    "sensitivity.self_s": "s",
    "sensitivity.solves": "count",
    "sensitivity.snr_evals": "count",
    "sensitivity.evals_per_solve": "ratio",
    "experiments.self_s": "s",
    "experiments.scaling_eff_2t": "ratio",
    "io_utils.write.busy_s": "s",
    "io_utils.bytes_written": "bytes",
    "setup.import_scipy_s": "s",
    "setup.import_ramsey_sensing_s": "s",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The checkout's package cannot be imported."""


def summarize(values) -> dict:
    """Median, quartiles, sample count, and the highest percentile that
    still has at least ten samples beyond it, when there is one."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99.9, 99, 95, 90, 75):
        if n * (1000 - round(pct * 10)) >= 10_000:  # samples above pct >= 10
            out[f"p{pct:g}"] = float(np.percentile(values, pct))
            break
    return out


class Ledger:
    """Operations attempted and failed, plus gate failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.gates: list[str] = []

    def record(self, ops, reference=None):
        for i, op in enumerate(ops):
            self.attempted += 1
            bad = not op.ok
            if op.error:
                self._note(f"{op.name}: {op.error}")
            elif not op.ok:
                self._note(f"{op.name}: output failed the value check")
            if reference is not None and op.digest != reference[i].digest:
                bad = True
                self._note(f"{op.name}: output bytes differ from the reference")
            self.failed += bad

    def _note(self, msg):
        if len(self.errors) < 20:
            self.errors.append(msg)


def measure_setup(traced: bool) -> dict:
    """Import the CLI and pipelines in fresh interpreters; the first run only
    warms the bytecode cache. Traced runs parse ``-X importtime`` instead."""
    cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + ["-c", SETUP_IMPORT]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, scipy_s, package_s = [], [], []
    for k in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"importing {PACKAGE} failed:\n{proc.stderr[-2000:]}")
        if k == 0:
            continue
        walls.append(wall)
        if traced:
            cumulative = outermost_import_us(proc.stderr)
            scipy_s.append(cumulative.get("scipy", 0) / 1e6)
            package_s.append(cumulative.get(PACKAGE, 0) / 1e6)
    if traced:
        return {"setup.import_scipy_s": scipy_s, "setup.import_ramsey_sensing_s": package_s}
    return {"setup_s": walls}


def outermost_import_us(importtime: str) -> dict[str, int]:
    """Cumulative import time (us) per top-level package, counting only the
    outermost import of each package from ``-X importtime`` output."""
    rows = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    totals: dict[str, int] = {}
    stack: list[tuple[int, str]] = []
    # lines come children first; reversed, each parent precedes its children
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if all(a.split(".")[0] != top for _, a in stack):
            totals[top] = totals.get(top, 0) + cumulative
        stack.append((depth, name))
    return totals


def load_api():
    """The checkout's ``ramsey_sensing.experiments``, the workloads' entry point."""
    sys.path.insert(0, str(SRC))
    import ramsey_sensing
    from ramsey_sensing import experiments
    if Path(ramsey_sensing.__file__).resolve().parent != SRC / PACKAGE:
        raise SetupError(f"imported {ramsey_sensing.__file__}, not the checkout's copy")
    return experiments


class Runner:
    def __init__(self, workload, api, seed: int, out: Path):
        self.w, self.api, self.seed, self.out = workload, api, seed, out
        self.ledger = Ledger()

    def timed(self, threads: int):
        self.w.prepare(self.out)
        t0 = time.perf_counter()
        results = self.w.run(self.api, self.seed, threads, self.out)
        wall = time.perf_counter() - t0
        return wall, self.w.check(results, self.out)

    def traced(self, tracer: Tracer):
        self.w.prepare(self.out)
        with tracer:
            t0 = time.perf_counter()
            results, trace = tracer.run(
                lambda: self.w.run(self.api, self.seed, 1, self.out))
            wall = time.perf_counter() - t0
        if tracer.still_installed():
            self.ledger.gates.append("tracer left wrappers installed")
        for fault in trace.faults():
            self.ledger.gates.append(f"traced span tree: {fault}")
        return wall, self.w.check(results, self.out), trace


def check_counts(ledger: Ledger, metrics: dict, reference: dict, where: str) -> None:
    for key in REPEAT_EXACTLY:
        if metrics.get(key) != reference.get(key):
            ledger.gates.append(f"{key} differs on {where}: "
                                f"{metrics.get(key)} vs {reference.get(key)}")


def run_plain(r: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end run: a warm-up iteration, threads=1 iterations until
    ``seconds`` pass (at least three), one threads=2 iteration for the
    determinism gate, then a traced iteration for the byte gate, the span
    tree checks and the work counts. Peak memory is read after the first
    timed iteration: with two threads it depends on how the points
    interleave."""
    _, ref = r.timed(1)
    r.ledger.record(ref)
    walls = []
    t0 = time.perf_counter()
    while len(walls) < 3 or time.perf_counter() - t0 < seconds:
        wall, ops = r.timed(1)
        r.ledger.record(ops, ref)
        walls.append(wall)
        if len(walls) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_2, ops_2 = r.timed(2)
    r.ledger.record(ops_2, ref)
    _, ops, trace = r.traced(Tracer())
    r.ledger.record(ops, ref)
    counts = layer_metrics(trace)
    wall_1 = summarize(walls)
    shots = counts["montecarlo.shots"]
    extra = {
        "timings": {"wall_s": wall_1},
        "samples": {"wall_s": walls},
        "wall_2t_s_once": wall_2,
        "shots_per_iteration": shots,
        "solves_per_iteration": counts["sensitivity.solves"],
        "checks_failed": sum(op.checks_failed for op in ref),
        "checks_total": sum(op.checks_total for op in ref),
    }
    metrics = {
        "wall_s": wall_1["median"],
        "shots_per_s": shots / wall_1["median"],
        "solves_per_s": counts["sensitivity.solves"] / wall_1["median"],
        "peak_rss_mb": peak_mb,
    }
    return metrics, extra


def run_traced(r: Runner, seconds: float) -> tuple[dict, dict]:
    """Traced run: a traced warm-up, then per round an untraced threads=1
    and threads=2 iteration and a traced threads=1 iteration."""
    tracer = Tracer()
    _, ref, ref_trace = r.traced(tracer)
    r.ledger.record(ref)
    ref_counts = layer_metrics(ref_trace)
    u1, u2, tw, per_iter = [], [], [], []
    t0 = time.perf_counter()
    j = 0
    while j < 2 or time.perf_counter() - t0 < seconds:
        wall_1, ops_1 = r.timed(1)
        wall_2, ops_2 = r.timed(2)
        wall_t, ops_t, trace = r.traced(tracer)
        for ops in (ops_1, ops_2, ops_t):
            r.ledger.record(ops, ref)
        m = layer_metrics(trace)
        check_counts(r.ledger, m, ref_counts, f"traced iteration {j}")
        u1.append(wall_1)
        u2.append(wall_2)
        tw.append(wall_t)
        per_iter.append(m)
        j += 1
    metrics = {}
    keys = sorted({k for m in per_iter for k in m})
    for key in keys:
        vals = [m[key] for m in per_iter if m.get(key) is not None]
        if not vals:
            metrics[key] = None
        elif all(isinstance(v, int) for v in vals):
            metrics[key] = statistics.median_low(vals)  # counts stay whole
        else:
            metrics[key] = statistics.median(vals)
    metrics["experiments.scaling_eff_2t"] = statistics.median(u1) / (2 * statistics.median(u2))
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(tw, u1))
    extra = {
        "timings": {"wall_s": summarize(u1), "wall_2t_s": summarize(u2),
                    "trace.wall_s": summarize(tw)},
        "per_iteration": per_iter,
        "functions": trace.totals(),
        "calls": trace.calls,
        "checks_failed": sum(op.checks_failed for op in ref),
        "checks_total": sum(op.checks_total for op in ref),
    }
    spans_file = WORK / f"{r.w.name}-seed{r.seed}-spans.npz"
    np.savez_compressed(spans_file, names=np.array(trace.names), name=trace.name,
                        parent=trace.parent, start=trace.start, end=trace.end)
    extra["spans_file"] = str(spans_file.relative_to(ROOT))
    return metrics, extra


def provenance(args, seed: int, workload) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass  # provenance only: no git, no commit id
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "workload": workload.name,
        "seed": seed,
        "default_seed": workload.default_seed,
        "argv": sys.argv,
        "threads": [1, 2],  # timings at 1; threads=2 gates determinism
        "traced_threads": 1 if args.trace else None,
        "run_seconds": args.seconds,
        "setup_runs": SETUP_RUNS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's documented seed)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    WORK.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        setup = measure_setup(bool(args.trace))
        runner = Runner(workload, load_api(), seed, out)
        if args.trace:
            metrics, extra = run_traced(runner, args.seconds)
            for key, vals in setup.items():
                metrics[key] = statistics.median(vals)
            declared = PER_LAYER
        else:
            metrics, extra = run_plain(runner, args.seconds)
            metrics["setup_s"] = statistics.median(setup["setup_s"])
            declared = END_TO_END
        extra["timings"].update({k: summarize(v) for k, v in setup.items()})
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    ledger = runner.ledger
    report = {
        "provenance": provenance(args, seed, workload),
        "metrics": metrics,
        "error_rate": ledger.failed / ledger.attempted,
        "errors": ledger.errors,
        "gates_failed": ledger.gates,
        **extra,
    }
    report_file = WORK / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    report_file.write_text(json.dumps(report, indent=1, default=str) + "\n")
    result = {
        "correct": ledger.failed == 0 and not ledger.gates,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in declared.items()},
    }
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
