"""The benchmark runs one short workload end to end and reports a clean result."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_random_pairs_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random-pairs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0, proc.stdout
