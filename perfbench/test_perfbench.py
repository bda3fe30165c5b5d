"""Tests of the benchmark itself, at smoke sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("traced", (0, 1))
def test_smoke_run_prints_every_metric(workload, traced):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(traced), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if traced else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if traced:
        tag = f"{workload}-seed1"
        assert (ROOT / ".perfbench" / f"layers-{tag}.json").is_file()
        spans = json.loads((ROOT / ".perfbench" / f"spans-{tag}.json").read_text())
        assert {s[1] for s in spans["spans"]} >= {"bench.setup", "bench.run"}
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    runs = [line for line in proc.stdout.splitlines() if line.startswith("sample ")]
    assert len(runs) >= run.MIN_RUNS.get(workload, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "kernel", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_follow_the_seed():
    size = workloads.SIZES["smoke"]

    def pairs(seed):
        return workloads.transforms_inputs(np.random.default_rng(seed), size)

    assert pairs(5) == pairs(5)
    assert pairs(5) != pairs(6)
    points = workloads.kernel_inputs(np.random.default_rng(5), size)
    assert points == workloads.kernel_inputs(np.random.default_rng(5), size)


def test_self_time_excludes_children_in_the_same_thread():
    tracer = Tracer()
    inner = tracer.span("gauss.mod_inverse", lambda: time.sleep(0.05))

    def body():
        time.sleep(0.05)
        inner()

    tracer.span("gauss.unit_residues", body)()
    layers = tracer.layer_metrics()
    assert layers["gauss.mod_inverse.calls"] == 1
    assert 0.04 < layers["gauss.unit_residues.self_s"] < 0.09
    assert 0.04 < layers["gauss.mod_inverse.self_s"] < 0.09
