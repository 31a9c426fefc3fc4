"""Smoke tests of the benchmark itself, at the tiny `--smoke` input size.

Each run builds the inputs, runs two rounds of the job list and checks
every answer; the tests check the format of the last output line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
END_TO_END = {"setup_s", "wall_s", "job_p50_s", "job_tail_s", "peak_rss_mb"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload,trace", [("tables", "0"), ("groups", "1"), ("cli", "0")])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec[layer]}
    if trace == "0":
        assert set(result["metrics"]) == END_TO_END
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(tmp_path, "--workload", "tables", "--seed", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
