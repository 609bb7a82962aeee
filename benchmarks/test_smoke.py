"""Smoke test of the benchmark: every workload, tiny and short, traced and
untraced, must finish correct and emit every metric BENCHMARK.json names.

    python3 -m pytest benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_seed_fixes_the_inputs():
    def inputs(seed):
        proc = run("--workload", "implicit-cold", "--seed", str(seed), "--seconds", "2", "--tiny")
        detail = next(ln[7:] for ln in proc.stdout.splitlines() if ln.startswith("detail "))
        return json.loads(detail)["inputs_sha256"]

    assert inputs(3) == inputs(3) != inputs(4)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "implicit-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
