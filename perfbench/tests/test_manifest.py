"""BENCHMARK.json must describe exactly what the benchmark reports."""

import json
import os

from perfbench.metrics import END_TO_END_UNITS, PER_LAYER_UNITS
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_workloads_match():
    listed = {w["name"]: w["why"] for w in manifest()["workloads"]}
    assert listed == {name: w.why for name, w in WORKLOADS.items()}
    assert all(len(why) <= 200 and "\n" not in why for why in listed.values())


def test_metric_names_and_units_match():
    data = manifest()
    assert {m["name"]: m["unit"] for m in data["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in data["per_layer"]} == PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    assert all(m["better"] in ("higher", "lower") for m in data["end_to_end"] + data["per_layer"])
