"""Smoke tests of the benchmark itself, on tiny inputs.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed_count(proc: subprocess.CompletedProcess, name: str) -> int:
    return int(re.search(rf"^\s*{re.escape(name)}:?\s+(\d+)", proc.stdout, re.M).group(1))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_no_call_fails(workload):
    plain = bench(workload, 0)
    traced = bench(workload, 1)
    for proc, section in ((plain, "end_to_end"), (traced, "per_layer")):
        result = result_of(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert result["failed"] == 0, proc.stderr  # error_rate is 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[section]
        }
    assert all(m["value"] > 0 for m in result_of(plain)["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_runs_and_tracing(workload):
    first, second = bench(workload, 0), bench(workload, 0)
    traced = result_of(bench(workload, 1))["metrics"]
    for name in ("objectives.gain_calls", "optimizer.lazy_pops"):
        assert printed_count(first, name) == printed_count(second, name) == traced[name]["value"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
