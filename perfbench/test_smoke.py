"""Smoke test of the benchmark: every workload in both modes at tiny sizes,
plus the refusal to run without the program's sources.

Run with ``python -m pytest perfbench``; the tier-1 suite (``tests/``) does
not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(run_py: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run_py), *args],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run(HERE / "run.py", "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    assert lines[0].startswith("# python=")
    assert "nproc=" in lines[0] and "seed=3" in lines[0]
    assert "command=" in lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] \
        == [(m["name"], m["unit"]) for m in SPEC[kind]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path / "perfbench" / "run.py", "--workload", "tree",
                "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
