"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Run from the checkout root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_no_failures(workload, trace):
    p = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    human = "\n".join(lines[:-1])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        assert f"{m['name']} " in human and f" {m['unit']}" in human
        if not trace:
            assert got["value"] > 0
    assert "fail_ratio" in human and "0 ratio (0 failed" in human


def test_refuses_to_run_without_the_sources():
    bare = os.path.join(ROOT, ".perfbench_out", f"bare_{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        p = run_bench(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
