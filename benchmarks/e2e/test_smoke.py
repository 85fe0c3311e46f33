"""Smoke test of the end-to-end benchmark at its ``--smoke`` scale.

    pytest benchmarks/e2e -q

Every workload runs once untraced and once traced on tiny inputs (a few
seconds each).  The test checks that the output matches the schema of
``BENCHMARK.json``, that the output oracle passes (including the
recorded seed-0 digests), and that the traced per-layer self times
account for 90-100 % of the wall time.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace, tmp_path):
    output = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0",
         "--seconds", "2", "--trace", str(trace), "--smoke",
         "--output", str(output)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(output) as fh:
        return result, json.load(fh)["runs"][0]


def _check_result(result, section):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_oracle(workload, tmp_path):
    result, run = _run(workload, 0, tmp_path)
    _check_result(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(run["digest"]) == 64


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_profile_covers_wall_time(workload, tmp_path):
    result, run = _run(workload, 1, tmp_path)
    _check_result(result, "per_layer")
    profile = run["report"]["profile"]
    assert 0.90 <= profile["coverage"] <= 1.0 + 1e-9
    workers = profile.get("workers")
    if workers is not None:
        assert 0.90 <= workers["coverage"] <= 1.0 + 1e-9
    for entry in profile["layers"].values():
        assert entry["self_ms"] >= 0.0


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "mc-mlp2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
