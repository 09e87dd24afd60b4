"""Smoke test of the benchmark harness; it sets no timing thresholds.

Each workload runs at a tiny size (short task lists, one set-up, one timed
pass), untraced and traced, and must report exactly the metrics that
BENCHMARK.json declares, with their units, and no failed task.
"""

import json
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    result, report = run.run_benchmark(workload, seed=1, seconds=0, trace=trace, tiny=True)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert set(report["metrics"]) == set(declared)
    # a layer the workload never enters reports zero spans behind its metrics
    assert all(m["samples"] >= (0 if trace else 1) for m in report["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and report["failed_frac"] == 0
    assert result["attempted"] == report["attempted"] >= 1
    assert report["env"]["nproc"] >= 1 and report["seed"] == 1
