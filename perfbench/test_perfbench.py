"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

They run every workload at a tiny size, traced and untraced, and check
that a wrong answer or a corrupted golden value is counted as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def run_benchmark(*argv: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv], capture_output=True,
                          cwd=HERE.parent, timeout=170)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    return json.loads(proc.stdout.decode().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric_without_failures(workload, trace):
    result = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", str(trace), "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = run.END_TO_END if not trace else tracer.LAYER_METRICS
    assert list(result["metrics"]) == [m[0] for m in names]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def corrupt(item: workloads.Item):
    key = next(k for k in ("digest", "stdout", "weight") if k in item.expect)
    item.expect[key] = item.expect[key] + 1 if key == "weight" else "0" * 20


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_golden_value_is_a_failure(name):
    golden = json.loads((HERE / "golden.json").read_text())[name]
    workload = workloads.WORKLOADS[name](tiny=True)
    items = workload.items(5, golden)
    corrupt(items[0])
    if name == "cli_mix":
        call = lambda item: workloads.cli_answer(  # noqa: E731
            *worker.cli_process([sys.executable, "-m", "tropnc.cli"], item))
    else:
        call = workload.run
    result = worker.run_round(workload, items, call)
    assert len(result["errors"]) == 1
    assert result["times"][0] is None
    assert None not in result["times"][1:]
    assert worker.timing_metrics([result["times"]])["samples"] == len(items) - 1


def test_throughput_takes_each_items_median_and_percentiles_every_run():
    metrics = worker.timing_metrics([[0.3, None, 0.1], [0.1, 0.2, 0.3], [0.2, 0.2, 0.9]])
    assert metrics["samples"] == 8 and metrics["rounds"] == 3  # the failed run has no time
    assert metrics["items_per_s"] == pytest.approx(3 / (0.2 + 0.2 + 0.3))
    assert metrics["item_p50_ms"] == pytest.approx(200)


def test_gauge_scales_by_the_readings_around_each_item():
    gauge = speed.Gauge()
    gauge.readings = [0.010, 0.012, 0.002, 0.016, 0.020]
    # Item 2 sees readings 1-4 (two before it, two after); items 0 and 3,
    # at the ends of this four-item round, see three.
    assert gauge.scale(0) == pytest.approx(speed.NOMINAL_S / 0.010)
    assert gauge.scale(2) == pytest.approx(speed.NOMINAL_S / 0.014)
    assert gauge.scale(3) == pytest.approx(speed.NOMINAL_S / 0.016)
    result = worker.run_round(workloads.WORKLOADS["fan_weight"](tiny=True), [], None)
    assert result["times"] == result["scaled"] == []


def test_tracer_restores_every_function():
    from tropnc import ladder, ncfan, pluecker, weight

    before = (ladder.rho, ncfan.nc_decompose, weight.pk_weight, pluecker.PlueckerVector.__init__)
    trace = tracer.Tracer()
    trace.install()
    assert ladder.rho is not before[0]
    trace.uninstall()
    after = (ladder.rho, ncfan.nc_decompose, weight.pk_weight, pluecker.PlueckerVector.__init__)
    assert after == before


def test_no_result_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "fan_weight",
                           "--seed", "1", "--seconds", "1"], capture_output=True, cwd=tmp_path,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == b""
