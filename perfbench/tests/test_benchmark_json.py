"""BENCHMARK.json lists exactly the metrics a run reports."""

import json
from pathlib import Path

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import PROFILE, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metrics_match_the_run():
    spec = load()
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


def test_workloads_and_profile_match_the_run():
    spec = load()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    command = spec["command"]
    assert command[:2] == ["python3", "perfbench/run.py"]
    assert command[command.index("--profile") + 1] == PROFILE.name
    assert 1 <= spec["run_seconds"] <= 60
