"""The replica pipelines under the benchmark's tracer.

perfbench/spans.py wraps every public function of the package, calls a
work-count hook on some results and builds a span tree; the benchmark runs
one traced iteration of the replica and degradation studies on every run.
A change to the package that breaks that iteration must fail here, not
only in the benchmark. The tracer is loaded from its file and not changed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from ramsey_sensing.experiments import run_experiment_replica, run_fidelity_degradation

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def _pipelines():
    return [run_experiment_replica(7), run_fidelity_degradation(7, repetitions=2)]


def test_traced_replica_pipelines_match_an_untraced_run():
    spans = _load_spans()
    tracer = spans.Tracer()
    with tracer:
        traced, trace = tracer.run(_pipelines)
    assert not tracer.still_installed()
    assert trace.faults() == []
    metrics = spans.layer_metrics(trace)
    # solves_per_s divides by this count: one closed-form g_min for the
    # replica and one per flip of the default grid
    assert metrics["sensitivity.solves"] == 6
    assert [r.tables for r in traced] == [r.tables for r in _pipelines()]
