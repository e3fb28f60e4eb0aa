"""BENCHMARK.json names exactly the metrics the benchmark reports, with their units."""

import json
from pathlib import Path

import layers
import run

CONFIG = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_units_match_config():
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == run.UNITS


def test_per_layer_units_match_config():
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == layers.UNITS
