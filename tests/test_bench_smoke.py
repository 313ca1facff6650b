"""The benchmark script still runs: tiny monolith, library and tree workloads,
one round each.  The library's deep data terms put the formatter's wrapping
under the benchmark's formatter checks; the tree's many small messy files in
nested directories put path expansion and per-file work under them.

The full smoke test of every workload lives next to the benchmark
(``python -m pytest perfbench``).
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["monolith", "library", "tree"])
def test_benchmark_smoke_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_traced_layer_functions_exist():
    # The tracer skips a layer function it does not find, and that layer's
    # metrics then read 0; a renamed function must fail here instead.
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", RUN_PY.parent / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, function, _ in spans.LAYER_FUNCTIONS:
        module = importlib.import_module(f"prolint.{module_name}")
        assert callable(getattr(module, function, None)), \
            f"prolint.{module_name}.{function}"
