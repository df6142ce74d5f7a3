"""Per-layer tracing of ramsey_sensing from outside the program.

The layers are the package modules. ``Tracer`` wraps the public functions
each module defines, under every module attribute bound to them (modules
import names directly, so ``simulate_shots`` is also reached as
``experiments.simulate_shots`` and ``sensitivity.simulate_shots``), and
records one span (name, start, end, parent) per outermost call into a layer.
A call made while its own layer is already on the call stack is only
counted, which keeps, for example, the ~17,000 ``gmin_variance`` evaluations
of one fig2 study from becoming spans. Spans stay in memory
until the iteration ends; the originals are restored on exit.

Traced calls must come from the thread that installed the tracer, so traced
iterations run pipelines with ``threads=1``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
import types
from collections import Counter
from dataclasses import dataclass

import numpy as np

PACKAGE = "ramsey_sensing"
LAYERS = ("signals", "sensor", "montecarlo", "streams", "estimators",
          "sensitivity", "experiments", "io_utils", "cli")
ROOT_NAME = "client.iteration"

# Per-cell formatter called from write_csv: wrapping it would turn most of
# the io_utils time into tracing cost.
_SKIP = {"io_utils.format_value"}
# scipy's root finder enters sensitivity under this name; its calls are the
# brentq count and, nested in a solve, stay inside the sensitivity layer.
_FOREIGN = {"sensitivity": ("brentq",)}


def _add_shots(c, args, kwargs, r):
    c["montecarlo.shots"] += int(r.counts.shape[0])


def _add_realizations(c, args, kwargs, r):
    c["signals.values_drawn"] += int(r.size)
    c["signals.realization_bytes_computed"] += int(r.nbytes)


def _add_probabilities(c, args, kwargs, r):
    c["sensor.probability_bytes_computed"] += int(np.asarray(r).nbytes)


def _add_outcome(c, args, kwargs, r):
    c["estimators.attempts"] += 1
    c["estimators.defined"] += int(r.defined)


def _add_written(c, args, kwargs, r):
    path = args[0] if args else kwargs["path"]
    c["io_utils.bytes_written"] += os.path.getsize(path)


# Work counts taken from each call's arguments and result.
HOOKS = {
    "montecarlo.simulate_shots": _add_shots,
    "signals.sample_realizations": _add_realizations,
    "sensor.excitation_probability": _add_probabilities,
    "estimators.estimate_amplitude": _add_outcome,
    "estimators.estimate_variance": _add_outcome,
    "estimators.estimate_frequency_separation": _add_outcome,
    "io_utils.write_csv": _add_written,
    "io_utils.write_json": _add_written,
}


def layer_functions() -> dict[str, dict[str, types.FunctionType]]:
    """Public functions each layer module defines, keyed by layer then name."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        fns = {
            name: obj for name, obj in vars(mod).items()
            if isinstance(obj, types.FunctionType) and not name.startswith("_")
            and obj.__module__ == mod.__name__ and f"{layer}.{name}" not in _SKIP
        }
        for name in _FOREIGN.get(layer, ()):
            fns[name] = getattr(mod, name)
        out[layer] = fns
    return out


def find_bindings(targets) -> dict[int, list[tuple[types.ModuleType, str]]]:
    """Every (module, attribute) across the package bound to each target, by identity."""
    by_id = {id(fn): [] for fn in targets}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in by_id:
                by_id[id(value)].append((mod, attr))
    return by_id


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parent`` holds the index of each span's parent, -1 for a root. By
    construction the self times of a tree sum to its root's duration, so
    that sum checks nothing; ``tree_faults`` does the checking.
    """
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def tree_faults(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> list[str]:
    """What is wrong with a span tree; empty when span 0 is its only root,
    every child lies inside its parent's [start, end], children of one
    parent do not overlap, and no self time is negative."""
    faults = []
    if len(parent) == 0 or parent[0] != -1 or (parent[1:] < 0).any():
        faults.append("span 0 is not the only root")
        return faults
    if (end < start).any():
        faults.append("a span ends before it starts")
    kid = np.arange(1, len(parent))
    up = parent[kid]
    if ((up >= kid) | (start[kid] < start[up]) | (end[kid] > end[up])).any():
        faults.append("a span does not lie inside its parent")
    order = np.lexsort((start, parent))  # siblings adjacent, by start time
    same = parent[order[1:]] == parent[order[:-1]]
    if (same & (start[order[1:]] < end[order[:-1]])).any():
        faults.append("two spans of one parent overlap")
    if (self_times(parent, start, end) < 0).any():
        faults.append("a span has a negative self time")
    return faults


@dataclass
class IterationTrace:
    """Spans and counts of one traced iteration (times in ns)."""

    names: list[str]  # span name table: index -> "layer.function"
    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    calls: dict[str, int]  # every call, spans plus nested calls
    counters: dict[str, int]

    @property
    def wall_ns(self) -> int:
        return int(self.end[0] - self.start[0])

    def faults(self) -> list[str]:
        return tree_faults(self.parent, self.start, self.end)

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: busy (sum of span durations) and self time, in ns."""
        own = self_times(self.parent, self.start, self.end)
        dur = self.end - self.start
        size = len(self.names)
        busy = np.bincount(self.name, weights=dur, minlength=size)
        selft = np.bincount(self.name, weights=own, minlength=size)
        spans = np.bincount(self.name, minlength=size)
        return {
            n: {"busy_ns": int(busy[i]), "self_ns": int(selft[i]), "spans": int(spans[i])}
            for i, n in enumerate(self.names) if spans[i]
        }


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self):
        self.names = [ROOT_NAME]
        self._wrappers = {}  # id(original) -> wrapper
        self._originals = []
        self._depth = [0] * len(LAYERS)  # 1 while a layer is on the call stack
        for li, (layer, fns) in enumerate(layer_functions().items()):
            for fname, fn in fns.items():
                full = f"{layer}.{fname}"
                self._wrappers[id(fn)] = self._wrap(len(self.names), li, fn, HOOKS.get(full))
                self.names.append(full)
                self._originals.append(fn)
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self._owner = None
        self._reset()

    def _reset(self) -> None:
        self._name: list[int] = []
        self._parent: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._current = -1
        self._nested = [0] * len(self.names)
        self.counters: Counter = Counter()

    def __enter__(self) -> "Tracer":
        self._owner = threading.get_ident()
        for key, bindings in find_bindings(self._originals).items():
            for mod, attr in bindings:
                self._saved.append((mod, attr, vars(mod)[attr]))
                setattr(mod, attr, self._wrappers[key])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def bindings(self) -> list[str]:
        """'module.attribute' of every binding currently replaced."""
        return [f"{mod.__name__}.{attr}" for mod, attr, _ in self._saved]

    def still_installed(self) -> bool:
        """Whether any package attribute is still bound to one of the wrappers."""
        return any(find_bindings(self._wrappers.values()).values())

    def _wrap(self, fid: int, layer: int, fn, hook):
        tracer = self
        depth = self._depth
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            if depth[layer]:
                tracer._nested[fid] += 1
                result = fn(*args, **kwargs)
            else:
                if get_ident() != tracer._owner:
                    raise RuntimeError("traced call from another thread; "
                                       "traced iterations must use threads=1")
                idx = len(tracer._name)
                parent = tracer._current
                tracer._name.append(fid)
                tracer._parent.append(parent)
                tracer._start.append(0)
                tracer._end.append(0)
                tracer._current = idx
                depth[layer] = 1
                tracer._start[idx] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._end[idx] = clock()
                    depth[layer] = 0
                    tracer._current = parent
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def run(self, body) -> tuple[object, IterationTrace]:
        """Call body() under a root span and return its result and trace."""
        self._reset()
        clock = time.perf_counter_ns
        self._name.append(0)
        self._parent.append(-1)
        self._start.append(clock())
        self._end.append(0)
        self._current = 0
        try:
            result = body()
        finally:
            self._end[0] = clock()
            self._current = -1
        trace = IterationTrace(
            names=list(self.names),
            name=np.asarray(self._name, dtype=np.int64),
            parent=np.asarray(self._parent, dtype=np.int64),
            start=np.asarray(self._start, dtype=np.int64),
            end=np.asarray(self._end, dtype=np.int64),
            calls={},
            counters=dict(self.counters),
        )
        spans = np.bincount(trace.name, minlength=len(self.names))
        trace.calls = {n: int(spans[i]) + self._nested[i]
                       for i, n in enumerate(self.names) if spans[i] or self._nested[i]}
        self._reset()
        return result, trace


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(trace: IterationTrace) -> dict[str, float | int | None]:
    """Per-layer metrics of one traced iteration; None where a ratio has no base."""
    totals = trace.totals()
    calls, counters = trace.calls, trace.counters

    def busy(name):
        return totals.get(name, {}).get("busy_ns", 0) / 1e9

    def own(name):
        return totals.get(name, {}).get("self_ns", 0) / 1e9

    def spans(name):
        return totals.get(name, {}).get("spans", 0)

    m: dict[str, float | int | None] = {}
    for layer in LAYERS + ("client",):
        names = [n for n in totals if n.split(".", 1)[0] == layer]
        m[f"{layer}.busy_s"] = sum(busy(n) for n in names)
        m[f"{layer}.self_s"] = sum(own(n) for n in names)

    m["signals.sample_realizations.busy_s"] = busy("signals.sample_realizations")
    m["signals.accrued_phases.busy_s"] = busy("signals.accrued_phases")
    m["signals.values_drawn"] = counters.get("signals.values_drawn", 0)
    m["signals.realization_bytes_computed"] = counters.get("signals.realization_bytes_computed", 0)

    m["sensor.excitation_probability.busy_s"] = busy("sensor.excitation_probability")
    m["sensor.mean_population.calls"] = calls.get("sensor.mean_population", 0)
    m["sensor.probability_bytes_computed"] = counters.get("sensor.probability_bytes_computed", 0)

    shots = counters.get("montecarlo.shots", 0)
    m["montecarlo.simulate_shots.calls"] = calls.get("montecarlo.simulate_shots", 0)
    m["montecarlo.shots"] = shots
    m["montecarlo.simulate_shots.self_s"] = own("montecarlo.simulate_shots")
    m["montecarlo.ns_per_shot"] = _ratio(busy("montecarlo.simulate_shots") * 1e9, shots)
    for fn in ("estimate_population", "apply_readout_degradation", "excess_noise_channel"):
        m[f"montecarlo.{fn}.busy_s"] = busy(f"montecarlo.{fn}")
        m[f"montecarlo.{fn}.calls"] = calls.get(f"montecarlo.{fn}", 0)

    streams = calls.get("streams.derive_stream", 0)
    m["streams.derive_stream.calls"] = streams
    m["streams.derive_stream.busy_s"] = busy("streams.derive_stream")
    m["streams.us_per_stream"] = _ratio(busy("streams.derive_stream") * 1e6, streams)

    m["estimators.estimate_frequency_separation.busy_s"] = busy(
        "estimators.estimate_frequency_separation")
    m["estimators.estimate_frequency_separation.calls"] = calls.get(
        "estimators.estimate_frequency_separation", 0)
    m["estimators.empirical_gmin.busy_s"] = busy("estimators.empirical_gmin")
    m["estimators.defined_ratio"] = _ratio(counters.get("estimators.defined", 0),
                                           counters.get("estimators.attempts", 0))

    sens = [n for n in calls if n.startswith("sensitivity.") and n != "sensitivity.brentq"]
    solves = sum(spans(n) for n in sens)
    evals = sum(calls[n] - spans(n) for n in sens)
    m["sensitivity.solves"] = solves
    m["sensitivity.snr_evals"] = evals
    m["sensitivity.brentq_calls"] = calls.get("sensitivity.brentq", 0)
    m["sensitivity.evals_per_solve"] = _ratio(evals, solves)
    m["sensitivity.mc_snr.self_s"] = own("sensitivity.mc_snr")

    for name in totals:
        if name.startswith("experiments."):
            m[f"{name}.self_s"] = own(name)

    m["io_utils.write.busy_s"] = busy("io_utils.write_csv") + busy("io_utils.write_json")
    m["io_utils.bytes_written"] = counters.get("io_utils.bytes_written", 0)

    m["trace.wall_s"] = trace.wall_ns / 1e9
    m["trace.self_sum_s"] = sum(v["self_ns"] for v in totals.values()) / 1e9
    m["trace.spans"] = len(trace.name)
    return m


# Counts that depend only on the iteration's inputs: two traced iterations
# with the same inputs must agree on each of them exactly.
REPEAT_EXACTLY = (
    "montecarlo.shots",
    "signals.values_drawn",
    "signals.realization_bytes_computed",
    "sensor.probability_bytes_computed",
    "streams.derive_stream.calls",
    "sensitivity.solves",
    "sensitivity.evals_per_solve",
    "estimators.defined_ratio",
    "io_utils.bytes_written",
)
