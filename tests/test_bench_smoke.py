"""Smoke test of the benchmark harness: a short traced run of each workload
must finish and check out correct.

`bench/run.py` patches functions in dressedq by module and name and checks
trained weights against its own reference, so a renamed function, a span
that is never recorded or a change to `weight_blocks()` shows up here.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["paper-n1", "ddp-n2"])
def test_bench_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is True, last
