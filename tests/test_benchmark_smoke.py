"""Each benchmark workload runs through at its smoke size and checks its own
results, so a change to a library name that the benchmark calls fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload, trace", [
    ("spiking-mc", 0), ("analog-mc", 0), ("train", 0), ("spiking-mc", 1),
])
def test_workload_is_correct(workload, trace):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace), "--smoke"],
                          cwd=RUN.parent.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
