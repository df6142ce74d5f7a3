import math

import numpy as np

import ramsey_sensing
from ramsey_sensing import experiments, montecarlo, sensitivity
from ramsey_sensing.sensor import EnsembleConfig, SensorModel
from run import outermost_import_us, summarize
from spans import IterationTrace, Tracer, layer_metrics, self_times, tree_faults


def synthetic_trace():
    # root [0, 100] -> a [10, 40] -> b [15, 25];  root -> c [50, 90]
    names = ["client.iteration", "experiments.run_fig2", "sensor.contrast",
             "sensitivity.gmin_constant"]
    return IterationTrace(
        names=names,
        name=np.array([0, 1, 2, 3]),
        parent=np.array([-1, 0, 1, 0]),
        start=np.array([0, 10, 15, 50]),
        end=np.array([100, 40, 25, 90]),
        calls={"experiments.run_fig2": 1, "sensor.contrast": 3,
               "sensitivity.gmin_constant": 1},
        counters={},
    )


def test_self_time_is_duration_minus_direct_children():
    t = synthetic_trace()
    assert self_times(t.parent, t.start, t.end).tolist() == [30, 20, 10, 40]


def test_self_times_add_up_to_the_root_span():
    t = synthetic_trace()
    totals = t.totals()
    assert sum(v["self_ns"] for v in totals.values()) == t.wall_ns == 100
    assert totals["experiments.run_fig2"] == {"busy_ns": 30, "self_ns": 20, "spans": 1}


def test_a_well_formed_tree_has_no_faults():
    assert synthetic_trace().faults() == []


def bad_tree(**change):
    t = synthetic_trace()
    arrays = {"parent": t.parent.copy(), "start": t.start.copy(), "end": t.end.copy()}
    for key, (i, value) in change.items():
        arrays[key][i] = value
    return tree_faults(arrays["parent"], arrays["start"], arrays["end"])


def test_malformed_trees_fail_even_though_their_self_times_still_add_up():
    outside = "a span does not lie inside its parent"
    overlap = "two spans of one parent overlap"
    assert outside in bad_tree(parent=(3, 1))  # c mis-parented under a
    assert outside in bad_tree(end=(2, 45))  # b ends after its parent a
    assert outside in bad_tree(parent=(2, 3))  # b parented by a later span
    assert bad_tree(start=(3, 30)) == [overlap]  # c overlaps its sibling a
    assert bad_tree(start=(3, 5), end=(3, 20)) == [overlap]  # c starts first, runs into a
    assert bad_tree(parent=(2, -1)) == ["span 0 is not the only root"]
    assert "a span ends before it starts" in bad_tree(end=(2, 12))
    # b moved up beside a and stretched over the whole root: root self < 0
    assert "a span has a negative self time" in bad_tree(parent=(2, 0), start=(2, 0),
                                                         end=(2, 100))
    for key, i, value in (("parent", 3, 1), ("start", 3, 30)):
        t = synthetic_trace()
        getattr(t, key)[i] = value
        assert t.faults()
        assert sum(v["self_ns"] for v in t.totals().values()) == t.wall_ns


def test_layer_metrics_of_synthetic_tree():
    m = layer_metrics(synthetic_trace())
    assert m["client.self_s"] == 30e-9
    assert m["experiments.self_s"] == 20e-9
    assert m["sensitivity.busy_s"] == 40e-9
    assert m["sensitivity.solves"] == 1
    assert m["sensitivity.snr_evals"] == 0
    assert m["trace.self_sum_s"] == m["trace.wall_s"]
    assert m["montecarlo.ns_per_shot"] is None  # no shots, no base


def test_alias_patching_finds_every_simulate_shots_binding_and_restores():
    original = montecarlo.simulate_shots
    tracer = Tracer()
    with tracer:
        bound = set(tracer.bindings())
        assert {"ramsey_sensing.montecarlo.simulate_shots",
                "ramsey_sensing.experiments.simulate_shots",
                "ramsey_sensing.sensitivity.simulate_shots"} <= bound
        assert experiments.simulate_shots is sensitivity.simulate_shots
        assert experiments.simulate_shots is not original
        assert experiments.simulate_shots.__wrapped__ is original
    for mod in (montecarlo, experiments, sensitivity, ramsey_sensing):
        assert mod.simulate_shots is original
    assert tracer.bindings() == []


def test_calls_nested_in_their_own_layer_are_counted_not_spanned():
    sensor = SensorModel(0.5, 10e-3)
    ensemble = EnsembleConfig(1000, 1)
    tracer = Tracer()
    with tracer:
        result, trace = tracer.run(
            lambda: sensitivity.optimal_integration_time("variance", sensor, ensemble))
    assert result == sensitivity.optimal_integration_time("variance", sensor, ensemble)
    totals = trace.totals()
    assert totals["sensitivity.optimal_integration_time"]["spans"] == 1
    assert "sensitivity.gmin_variance" not in totals
    assert trace.calls["sensitivity.gmin_variance"] > 20
    # contrast is another layer: one span per golden-section evaluation
    assert totals["sensor.contrast"]["spans"] == trace.calls["sensitivity.gmin_variance"]
    m = layer_metrics(trace)
    assert m["sensitivity.solves"] == 1
    assert m["sensitivity.snr_evals"] == (trace.calls["sensitivity.gmin_variance"]
                                          + trace.calls["sensitivity.gmin_gaussian_kernel"])
    assert sum(v["self_ns"] for v in totals.values()) == trace.wall_ns
    assert trace.faults() == []


def test_work_counts_come_from_results():
    tracer = Tracer()
    rng = ramsey_sensing.derive_stream(1, 2)
    spec = ramsey_sensing.TwoToneStochastic(2 * math.pi * 1000, 10.0, 2 * math.pi * 500)
    with tracer:
        _, trace = tracer.run(lambda: sensitivity.mc_snr(
            spec, SensorModel(1.0, 10e-3), EnsembleConfig(1000, 1), 1e-3, rng, 5000))
    m = layer_metrics(trace)
    assert m["montecarlo.shots"] == 5000
    assert m["signals.values_drawn"] == 20000
    assert m["signals.realization_bytes_computed"] == 20000 * 8
    assert m["sensor.probability_bytes_computed"] == 5000 * 8
    assert m["streams.derive_stream.calls"] == 0  # the stream was made outside


def test_outermost_import_us_counts_each_package_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        50 |         50 |         numpy.core",
        "import time:       100 |        150 |       numpy",
        "import time:       200 |        200 |       scipy.optimize._x",
        "import time:       300 |        500 |     scipy.optimize",
        "import time:        10 |        660 |   ramsey_sensing.sensitivity",
        "import time:        20 |        680 | ramsey_sensing",
        "import time:        30 |         30 | ramsey_sensing.cli",
        "import time:         5 |          5 | scipy.special",
    ])
    assert outermost_import_us(text) == {"ramsey_sensing": 710, "numpy": 150,
                                        "scipy": 505}


def test_summarize_reports_a_tail_percentile_only_with_ten_samples_beyond():
    assert "p90" not in summarize(range(50)) and "p75" in summarize(range(50))
    assert "p90" in summarize(range(100))
    assert summarize([3.0])["n"] == 1
