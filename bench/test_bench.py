"""Smoke tests for the benchmark itself, on tiny inputs.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_workload_emits_every_metric(workload, trace):
    result = run.run_workload(workload, seed=1, seconds=0, trace=trace, params=run.TINY[workload])
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    extra = run.TERM_LATENCY if workload == "serial" and not trace else {}
    assert {name: m["unit"] for name, m in result["extra"].items()} == extra
    assert all(isinstance(m["value"], (int, float)) for m in {**result["metrics"], **result["extra"]}.values())
    assert result["attempted"] > 0
    assert result["error_ratio"] == 0
    if trace:  # the probe runs every layer, so no time reads 0
        assert all(m["value"] > 0 for m in result["metrics"].values() if m["unit"] == "s")


def test_traced_sweep_reaches_the_sweep_layers():
    metrics = run.run_workload("sweep", 1, 0, True, params=run.TINY["sweep"])["metrics"]
    for name in ("terms.enumerated", "measure.instances_checked", "confluence.join_expanded",
                 "workers.speedup_x", "trace.overhead_ratio"):
        assert metrics[name]["value"] > 0, name
    assert metrics["confluence.join_ratio"]["value"] == 1


@pytest.mark.parametrize("timed", [False, True])
def test_corrupted_digest_counts_as_failed(timed):
    params = run.TINY["serial"]
    op = next(op for op in run.WORKLOADS["serial"](1, params) if op.timed == timed)
    expected = {op.key: {"exit": 0, "stdout_sha256": "0" * 64}}
    result = run.run_workload("serial", 1, 0, False, params=params, expected=expected)
    assert result["failed"] == op.size
    assert result["error_ratio"] == op.size / result["attempted"]


def test_terms_inputs_depend_only_on_the_seed():
    import gen

    assert gen.term_batch(3) == gen.term_batch(3) != gen.term_batch(4)
    assert gen.describe(gen.term_batch(3))["max_depth"] < gen.DEPTH_LIMIT


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
