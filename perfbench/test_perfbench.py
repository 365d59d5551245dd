"""Tests of the benchmark itself, on tiny inputs.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, OVERHEAD_METRIC, Tracer  # noqa: E402

# The named per-layer self times must account for the traced wall time
# within this fraction: only the benchmark's own calls into the roots are
# left out.
SELF_TIME_TOLERANCE = 0.05

REPORT_NAMES = {
    "train64": ("steps_per_s", "step_ms.p50", "step_ms.tail", "loss_final"),
    "eval64": ("frames_per_s", "sequence_ms.p50", "sequence_ms.tail", "dice"),
    "long128": ("frames_per_s", "frame_ms.early", "frame_ms.late", "frame_ms.tail"),
}


def run_tiny(capsys, workload: str, trace: int, seed: int = 3) -> tuple[int, dict, str]:
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)], scale=workloads.TINY)
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_the_code():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [(name, unit) for name, unit, _, _ in LAYER_METRICS] + [OVERHEAD_METRIC]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, result, report = run_tiny(capsys, workload, trace)
    assert code == 0, report
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    for name in REPORT_NAMES[workload]:
        assert f"  {name}" in report
    assert "n=" in report and "failed_ratio" in report


def traced(workload_cls, tmp_path, seed=3):
    tracer = Tracer()
    workload = workload_cls(seed, tmp_path, workloads.TINY)
    m = workloads.measure(workload, 0.0, tracer)
    assert not m.errors and not any(u.failures for u in m.units + m.traced)
    return tracer, m


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS.values()))
def test_self_times_sum_to_traced_wall_time(tmp_path, workload):
    tracer, m = traced(workload, tmp_path)
    wall = sum(u.busy_s for u in m.traced)
    seconds, _ = tracer.self_times()
    assert sum(seconds.values()) == pytest.approx(tracer.root_seconds(), rel=1e-9)
    per_unit = tracer.layer_metrics(len(m.traced))
    named = sum(per_unit[name] for name, unit, _, _ in LAYER_METRICS if unit == "ms")
    named *= len(m.traced) / 1000.0
    assert named <= wall
    assert named >= (1.0 - SELF_TIME_TOLERANCE) * wall


def test_counts_repeat_exactly(tmp_path):
    counted = ("backbone.encode.calls", "autodiff.conv2d.calls", "autodiff.tape.nodes",
               "temporal.memory_read.positions", "autodiff.conv2d.flops_computed")
    for workload in workloads.WORKLOADS.values():
        first = traced(workload, tmp_path / "a")[0].layer_metrics(1)
        second = traced(workload, tmp_path / "b")[0].layer_metrics(1)
        assert [first[c] for c in counted] == [second[c] for c in counted], workload.name


def test_counts_per_step_and_frame(tmp_path):
    train = traced(workloads.Train64, tmp_path / "t")[0].layer_metrics(1)
    steps = train["train.sgd_apply.calls"]
    assert steps == workloads.TINY.train_steps
    assert train["backbone.encode.calls"] == 8 * steps
    assert train["autodiff.conv2d.calls"] == 98 * steps
    long = traced(workloads.Long128, tmp_path / "l")[0].layer_metrics(1)
    frames = long["propagation.step.calls"]
    assert long["propagation.init.calls"] == 1
    assert long["backbone.encode.calls"] == 2 + 3 * frames


def test_overhead_ratio_compares_equal_work(tmp_path):
    _, m = traced(workloads.Long128, tmp_path)
    assert len(m.traced) == len(m.units) >= 1
    assert m.overhead_ratio > 0


def test_a_wrong_output_fails_the_run(capsys, monkeypatch):
    from lesionseg import evaluate, netpbm

    def write_inverted(path, mask):
        netpbm.write_mask(path, 1.0 - mask)

    monkeypatch.setattr(evaluate, "write_mask", write_inverted)
    code, result, report = run_tiny(capsys, "eval64", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1
    assert "dumped mask differs" in report


def test_no_result_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
