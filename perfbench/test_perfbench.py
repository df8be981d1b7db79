"""Self-tests of the benchmark at tiny sizes.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, run, tracing, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(
        workload, name=f"tiny-{name}",
        fresh=dataclasses.replace(workload.fresh, rows=min(workload.fresh.rows, 30)),
        live=dataclasses.replace(workload.live, rows=min(workload.live.rows, 12)),
    )


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request):
    return tiny(request.param)


def test_benchmark_file_names_every_workload_and_layer_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(per_layer) == set(layers.PER_LAYER_UNITS)
    assert per_layer == layers.PER_LAYER_UNITS


def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run.run_workload(workload, seed=3, seconds=0, trace=False)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


def test_corrupted_output_raises_error_rate(monkeypatch):
    from repro.shapley.constraints import ConstraintShapleyExplainer

    original = ConstraintShapleyExplainer.explain

    def halved(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        result.values = {key: value / 2 for key, value in result.values.items()}
        return result

    monkeypatch.setattr(ConstraintShapleyExplainer, "explain", halved)
    result = run.run_workload(tiny("hospital300-simple-sample"), seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_traced_run_reports_layers_and_balances(workload, tmp_path):
    directory = tmp_path / "inputs"
    workloads.make_inputs(workload, 3, directory)
    recorder, metrics, tracer = layers.run_traced(workload, directory, cycles=2)
    assert recorder.failed == 0, recorder.failures
    assert {name: unit for name, (_value, unit) in metrics.items()} == layers.PER_LAYER_UNITS
    ops = tracing.accounting(tracer)
    assert ops
    for op in ops:
        attributed = sum(op["layers"].values()) + op["unattributed"]
        assert attributed == pytest.approx(op["wall"], rel=0.01)
    assert metrics["trace.overhead"][0] > 0
    spans = tmp_path / "spans.jsonl"
    tracer.dump(spans)
    assert len(spans.read_text().splitlines()) == len(tracer.spans)


def test_instrument_restores_the_program():
    from repro.constraints import incremental

    before = incremental.find_violations
    with tracing.instrument(tracing.Tracer()):
        assert incremental.find_violations is not before
    assert incremental.find_violations is before


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "soccer-live-2proc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
