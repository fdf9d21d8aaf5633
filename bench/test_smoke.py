"""Smoke test of the benchmark: every workload in both trace modes, briefly.

    python3 -m pytest bench/test_smoke.py

A one-second window still runs each phase's minimum number of calls, so
the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def git_status() -> str | None:
    try:
        done = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    before = git_status()
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in done.stdout.splitlines()), name
    # train() outputs and checkpoints stay in the benchmark's ignored out dir
    assert git_status() == before


def test_train_loss_final_repeats_bit_for_bit():
    finals = []
    for _ in range(2):
        done = run_bench(ROOT, "train_acceptance", 0, seed=3)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        finals.append(result["metrics"]["train_loss_final"]["value"])
    assert finals[0] == finals[1]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "train_acceptance", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
