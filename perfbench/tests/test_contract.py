"""``BENCHMARK.json`` agrees with the code that produces the metrics."""

import json
import re
from pathlib import Path

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_exact_top_level_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == [BENCH.name]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)


def test_workloads_match_the_code_and_the_record():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
    record = json.loads((BENCH / "workloads.json").read_text())
    assert list(record) == list(workloads.WORKLOADS)
    for name, entry in record.items():
        why = next(w["why"] for w in SPEC["workloads"] if w["name"] == name)
        assert entry["why"] == why
        assert set(entry["loads"]).isdisjoint(entry["bypasses"])


def test_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        spans.PER_LAYER
    )
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
