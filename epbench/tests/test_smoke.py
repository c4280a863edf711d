"""Tiny runs of every workload: the result line carries exactly the
metric names and units ``BENCHMARK.json`` lists, and the run refuses to
report anything where there is no program to measure."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["gateway-zipf", "audit-product-stream", "audit-subcubes-stream"]


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_spec_lists_the_three_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_exactly_the_spec_metrics(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    env = json.loads(lines[-2])["env"]
    for key in ("nproc", "python", "numpy", "kernel_backend", "host.ref_ms_before"):
        assert key in env


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name)
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"),
         "--workload", "gateway-zipf", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
