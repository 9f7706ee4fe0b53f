"""Self-test of the benchmark at toy lengths.

    python3 -m pytest perfbench/test_bench.py

Each workload runs at --size tiny: the untraced run must print every
end-to-end metric of BENCHMARK.json with its unit, the traced run every
per-layer metric, and a perturbed reference must make the output check fail.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*extra, cwd=ROOT, trace=0, workload="offline-tracked"):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(result, spec):
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = run_bench(workload=workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] != 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    proc = run_bench(workload=workload, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert result["correct"]
    assert_metrics(result, SPEC["per_layer"])


def _perturb_final_loss(ref):
    ref["train.final_loss"] *= 1.0 + 1e-4


def _perturb_ticks(ref):
    ref["runs"][0][2] -= 1


def _perturb_cum_err(ref):
    ref["evaluate.cum_err_median"] *= 1.0 - 1e-4


@pytest.mark.parametrize("workload,perturb", list(zip(
    WORKLOADS, (_perturb_final_loss, _perturb_ticks, _perturb_cum_err))))
def test_perturbed_reference_fails(workload, perturb, tmp_path):
    with open(os.path.join(BENCH, "reference.json")) as f:
        reference = json.load(f)
    perturb(reference["tiny"][workload])
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    proc = run_bench("--reference", str(path), workload=workload)
    assert proc.returncode != 0
    result = result_line(proc)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
