"""The benchmark prints exactly the metrics BENCHMARK.json declares."""

import json

import env
from instrument import Tracer
from metrics import end_to_end, per_layer
from workloads import WORKLOADS

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_names_and_units_match():
    chain = {"chain_s": 1.0, "run_s": 1.2, "report_s": 0.1}
    metrics = end_to_end([chain], [0.2])
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("end_to_end")


def test_per_layer_names_and_units_match():
    metrics = per_layer(Tracer(), 1.0, [], {}, (0.0, 0.0), 0.0)
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("per_layer")
