"""The package under the benchmark's tracer and workloads.

perfbench/spans.py wraps every public function of the package, calls a
work-count hook on some results and builds a span tree; the benchmark runs
one traced iteration of the replica and degradation studies on every run.
perfbench/workloads.py makes the pipeline calls of each iteration, with the
keywords it passes. A change to the package that breaks that iteration or
those calls must fail here, not only in the benchmark. So must a change
that leaves a per-layer metric declared in BENCHMARK.json without a number,
for the benchmark prints every declared metric. Both files are loaded from
perfbench/ and not changed.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from ramsey_sensing import experiments
from ramsey_sensing.experiments import (
    run_experiment_replica,
    run_fidelity_degradation,
    run_fig3,
)

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def _pipelines():
    return [run_experiment_replica(7), run_fidelity_degradation(7, repetitions=2)]


def _written(reports, out: Path) -> list[dict[str, bytes]]:
    """The bytes of each report's files, by file name, as write_report writes them."""
    for i, report in enumerate(reports):
        experiments.write_report(report, out / str(i))
    return [{f.name: f.read_bytes() for f in sorted((out / str(i)).iterdir())}
            for i in range(len(reports))]


def test_traced_replica_pipelines_match_an_untraced_run(tmp_path):
    spans = _load("spans")
    tracer = spans.Tracer()
    with tracer:
        traced, trace = tracer.run(_pipelines)
    assert not tracer.still_installed()
    assert trace.faults() == []
    metrics = spans.layer_metrics(trace)
    # solves_per_s divides by this count: one closed-form g_min for the
    # replica and one per flip of the default grid
    assert metrics["sensitivity.solves"] == 6
    assert _written(traced, tmp_path / "traced") == _written(_pipelines(), tmp_path / "plain")


@pytest.mark.parametrize("iteration, solves, shots", [
    # 22 grid points of 11 replica and 2 degrade repetitions, 1000 shots each
    (_pipelines, 6, 22 * 11 * 1000 + 22 * 2 * 1000),
    # 120 Monte-Carlo points of 2000 shots
    (lambda: run_fig3(42, mc_shots=2000), 569, 240_000),
], ids=["replica+degrade", "fig3"])
def test_declared_layer_metrics_are_numbers(iteration, solves, shots):
    # the benchmark prints each declared per-layer metric; one that has lost
    # its base (a ratio over zero calls reads None) makes its output malformed
    spans = _load("spans")
    tracer = spans.Tracer()
    with tracer:
        _, trace = tracer.run(iteration)
    metrics = spans.layer_metrics(trace)
    assert metrics["sensitivity.solves"] == solves  # the base of solves_per_s
    assert metrics["montecarlo.shots"] == shots  # the base of shots_per_s
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    values = {name: metrics[name] for name in declared if name in metrics}
    assert "streams.us_per_stream" in values
    assert {name: v for name, v in values.items()
            if not (isinstance(v, (int, float)) and math.isfinite(v))} == {}


def test_replica_workload_runs_at_one_and_two_threads(tmp_path):
    workload = _load("workloads").ReplicaDegrade()
    digests = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        workload.prepare(out)
        ops = workload.check(workload.run(experiments, 7, threads, out), out)
        assert [(op.name, op.ok, op.error) for op in ops] == [
            ("replica", True, None), ("degrade", True, None)]
        digests.append([op.digest for op in ops])
    assert digests[0] == digests[1]


def test_fig3_workload_call_binds_to_run_fig3(tmp_path):
    # running fig3 takes seconds; binding its arguments checks the call
    bound = []
    ex = SimpleNamespace(
        run_fig3=lambda *a, **k: bound.append(inspect.signature(experiments.run_fig3).bind(*a, **k)),
        write_report=lambda report, out: None)
    [(name, _, error)] = _load("workloads").Fig3MC().run(ex, 42, 2, tmp_path)
    assert (name, error, len(bound)) == ("fig3", None, 1)
