"""Checks of the benchmark itself.

Run with ``python3 -m pytest perfbench/check_determinism.py``. The file
name keeps it out of the default test collection: it runs the
benchmark about a dozen times and takes a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int = 0, seed: int = 7, cwd: Path = ROOT):
    """One shortest run: a single repetition or pass per workload."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=4 * 170,
    )


def behaviour(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines()
            if line.startswith("behaviour ")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_behaviour(workload):
    first, second = bench(workload), bench(workload)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert behaviour(first.stdout) and (
        behaviour(first.stdout) == behaviour(second.stdout)
    )
    result = json.loads(first.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["full-stack", "certify"])
def test_traced_run_reports_every_layer_metric(workload):
    done = bench(workload, trace=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_all_runs_each_workload_in_a_process_of_its_own():
    done = bench("all")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {
        f"{workload}.{metric['name']}"
        for workload in WORKLOADS
        for metric in SPEC["end_to_end"]
    }
    # certify, run last, would report open-instant's larger peak if it
    # shared its process.
    rss = {w: result["metrics"][f"{w}.peak_rss_mb"]["value"]
           for w in ("open-instant", "certify")}
    assert rss["certify"] < rss["open-instant"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
