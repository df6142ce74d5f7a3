import json
from pathlib import Path

from run import END_TO_END, PER_LAYER
from workloads import WORKLOADS

MANIFEST = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_manifest_names_what_the_runner_prints():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == PER_LAYER


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
